// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Focused edge-case coverage across modules: boundary semantics, budget
// behaviour under adversity, degenerate geometry, and invariants the other
// suites touch only incidentally.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/flat_arena.h"
#include "common/random.h"
#include "core/balanced_cut.h"
#include "core/dim_reduction.h"
#include "core/nn_linf.h"
#include "core/orp_kw.h"
#include "core/sp_kw_hs.h"
#include "geom/polygon2d.h"
#include "geom/rank_space.h"
#include "kdtree/kd_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::Sorted;

// --- Geometry boundaries ---------------------------------------------

TEST(EdgePolygon, ContainsVertexAndEdgeMidpoint) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{2, 2}}});
  EXPECT_TRUE(poly.Contains({{0, 0}}));    // Vertex.
  EXPECT_TRUE(poly.Contains({{1, 0}}));    // Edge midpoint.
  EXPECT_FALSE(poly.Contains({{-0.001, 0}}));
}

TEST(EdgePolygon, RepeatedClippingStaysStable) {
  // Clip a box by the same halfplane many times; area must be monotone
  // non-increasing and stabilize (no numeric drift blow-up).
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{1, 1}}});
  const Halfspace<2> h{{{1, 1}}, 1.0};
  double prev = poly.Area();
  for (int i = 0; i < 20; ++i) {
    poly = poly.ClipBy(h);
    const double area = poly.Area();
    EXPECT_LE(area, prev + 1e-12);
    prev = area;
  }
  EXPECT_NEAR(prev, 0.5, 1e-9);
}

TEST(EdgeRankSpace, SingleObject) {
  std::vector<Point<2>> pts = {{{3.5, -2.0}}};
  RankSpace<2> rs{std::span<const Point<2>>(pts)};
  EXPECT_EQ(rs.ToRank(0)[0], 0);
  EXPECT_EQ(rs.ToRank(0)[1], 0);
  auto rq = rs.ToRankBox({{{3.5, -2.0}}, {{3.5, -2.0}}});
  EXPECT_TRUE(rq.Contains(rs.ToRank(0)));
}

TEST(EdgeRankSpace, SaveLoadRoundTrip) {
  Rng rng(4441);
  auto pts = GeneratePoints<2>(100, PointDistribution::kUniform, &rng);
  RankSpace<2> original{std::span<const Point<2>>(pts)};
  const uint32_t tag = FlatFamilyTag('R', 'A', 'N', 'K');
  FlatArenaWriter writer(tag);
  writer.Root(original.SaveFlatSlabs(&writer));
  std::ostringstream out;
  writer.WriteTo(&out);
  const auto file = MmapFile::FromBytes(out.str());
  const FlatArenaReader reader(*file, 0, tag);
  RankSpace<2> loaded;
  ASSERT_TRUE(loaded.AttachFlat(reader,
                                reader.Root<RankSpace<2>::FlatImage>(),
                                pts.size(), AbortingFlatErrorSink()));
  EXPECT_EQ(loaded.num_points(), pts.size());
  for (uint32_t e = 0; e < pts.size(); ++e) {
    EXPECT_EQ(loaded.ToRank(e).coords, original.ToRank(e).coords);
  }
  Box<2> q{{{0.2, 0.2}}, {{0.8, 0.8}}};
  EXPECT_EQ(loaded.ToRankBox(q), original.ToRankBox(q));
}

// --- kd-tree behaviours ----------------------------------------------

TEST(EdgeKdTree, DuplicatePointsAllReported) {
  std::vector<Point<2>> pts(50, Point<2>{{0.5, 0.5}});
  KdTree<2> tree{std::span<const Point<2>>(pts), /*leaf_capacity=*/4};
  std::vector<uint32_t> out;
  tree.RangeReport({{{0.5, 0.5}}, {{0.5, 0.5}}}, &out);
  EXPECT_EQ(out.size(), 50u);
}

TEST(EdgeKdTree, NearestFirstVisitsEveryPointWhenUnbounded) {
  Rng rng(4442);
  auto pts = GeneratePoints<2>(200, PointDistribution::kClustered, &rng);
  KdTree<2> tree{std::span<const Point<2>>(pts)};
  int visited = 0;
  tree.NearestFirst(Point<2>{{0.1, 0.9}}, L2SquaredDistanceFns<2, double>{},
                    [&visited](uint32_t, double) {
                      ++visited;
                      return true;
                    });
  EXPECT_EQ(visited, 200);
}

// --- Balanced cuts ----------------------------------------------------

TEST(EdgeBalancedCut, AllObjectsSameWeightFanoutEqualsCount) {
  Corpus corpus(std::vector<Document>(10, Document{0}));
  std::vector<ObjectId> sorted(10);
  std::iota(sorted.begin(), sorted.end(), 0);
  // Fanout = object count: quota 1, so groups hold one object each.
  const auto cut = ComputeBalancedCut(sorted, corpus, 10);
  size_t covered = cut.separators.size();
  for (const auto& g : cut.groups) covered += g.end - g.begin;
  EXPECT_EQ(covered, 10u);
}

TEST(EdgeBalancedCut, FanoutTwoSplitsByWeight) {
  // Doc sizes 1..6 (total 21, quota 10): first group must stay <= 10.
  std::vector<Document> docs;
  for (int len = 1; len <= 6; ++len) {
    std::vector<KeywordId> kws;
    for (int j = 0; j < len; ++j) kws.push_back(static_cast<KeywordId>(j));
    docs.emplace_back(std::move(kws));
  }
  Corpus corpus(docs);
  std::vector<ObjectId> sorted = {0, 1, 2, 3, 4, 5};
  const auto cut = ComputeBalancedCut(sorted, corpus, 2);
  ASSERT_FALSE(cut.groups.empty());
  uint64_t w = 0;
  for (uint32_t i = cut.groups[0].begin; i < cut.groups[0].end; ++i) {
    w += corpus.doc(sorted[i]).size();
  }
  EXPECT_LE(w, 21u / 2);
}

// --- Framework budget & stats semantics -------------------------------

TEST(EdgeOrpKw, ZeroBudgetReportsNothingAndFlags) {
  Rng rng(4443);
  CorpusSpec spec;
  spec.num_objects = 200;
  spec.vocab_size = 20;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(200, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  QueryStats stats;
  OpsBudget budget(0);
  auto got = index.Query(Box<2>::Everything(), kws, &stats, &budget);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(EdgeOrpKw, BudgetMonotonicity) {
  // More budget never yields fewer results.
  Rng rng(4444);
  CorpusSpec spec;
  spec.num_objects = 1000;
  spec.vocab_size = 15;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(1000, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  size_t prev = 0;
  for (uint64_t limit : {10u, 100u, 1000u, 100000u}) {
    OpsBudget budget(limit);
    const size_t got =
        index.Query(Box<2>::Everything(), kws, nullptr, &budget).size();
    EXPECT_GE(got, prev);
    prev = got;
  }
}

TEST(EdgeOrpKw, StatsCountersAreConsistent) {
  Rng rng(4445);
  CorpusSpec spec;
  spec.num_objects = 800;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(800, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts),
                              rng.UniformDouble(0.01, 0.5), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    QueryStats stats;
    auto got = index.Query(q, kws, &stats);
    EXPECT_EQ(stats.results, got.size());
    EXPECT_EQ(stats.covered_nodes + stats.crossing_nodes,
              stats.nodes_visited);
    EXPECT_EQ(stats.covered_work + stats.crossing_work,
              stats.ObjectsExamined());
    EXPECT_FALSE(stats.budget_exhausted);
  }
}

TEST(EdgeOrpKw, EmptinessDeviceOnPlantedDisjointPair) {
  // The adversarial frequent-disjoint instance: Empty() must answer true in
  // O(1)-ish work via the tuple registry.
  const uint32_t n = 4096;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  Rng rng(4446);
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 2),
                            static_cast<KeywordId>(2 + i % 9)});
    pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  QueryStats stats;
  EXPECT_TRUE(index.Empty(Box<2>::Everything(), kws, &stats));
  EXPECT_LE(stats.ObjectsExamined(), 4u);
}

// --- Dimension reduction edges -----------------------------------------

TEST(EdgeDimRed, QueryOutsideXRangeIsFree) {
  Rng rng(4447);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  Box<3> q{{{5.0, 0, 0}}, {{6.0, 1, 1}}};  // x-range beyond all data.
  QueryStats stats;
  EXPECT_TRUE(index.Query(q, kws, &stats).empty());
  EXPECT_LE(stats.nodes_visited, 1u);
}

TEST(EdgeDimRed, FullXRangeDelegatesToRootSecondary) {
  Rng rng(4448);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(400, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
  Box<3> q = Box<3>::Everything();
  QueryStats stats;
  auto got = index.Query(q, kws, &stats);
  // The root is type-1 for a full x-range: exactly one type-1 node, zero
  // type-2 nodes at the top level.
  EXPECT_EQ(stats.type1_nodes, 1u);
  EXPECT_EQ(stats.type2_nodes, 0u);
  EXPECT_EQ(Sorted(got), BruteBox(std::span<const Point<3>>(pts), corpus, q,
                                  kws));
}

// --- L∞ NN edges -------------------------------------------------------

TEST(EdgeLinfNn, TEqualsAllMatches) {
  Rng rng(4449);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 20;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(300, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<2> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  std::vector<ObjectId> all;
  for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
    if (corpus.ContainsAll(e, kws)) all.push_back(e);
  }
  ASSERT_FALSE(all.empty());
  auto got = index.Query({{0.5, 0.5}}, all.size(), kws);
  EXPECT_EQ(Sorted(got), all);
  // Asking for more than exist returns exactly the matches.
  auto more = index.Query({{0.5, 0.5}}, all.size() + 50, kws);
  EXPECT_EQ(Sorted(more), all);
}

TEST(EdgeLinfNn, QueryFarOutsideDataRange) {
  Corpus corpus({Document{0, 1}, Document{0, 1}});
  std::vector<Point<2>> pts = {{{0, 0}}, {{1, 1}}};
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  auto got = index.Query({{1000, 1000}}, 1, kws);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 1u);  // (1,1) is closer to (1000,1000).
}

// --- Partition tree edges ----------------------------------------------

TEST(EdgeSpKwHs, EmptyConstraintSetReturnsAllMatches) {
  // Zero constraints = pure keyword search through the partition tree.
  Rng rng(4450);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 25;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(300, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwHsIndex index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
  ConvexQuery<2> unconstrained;
  std::vector<ObjectId> expected;
  for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
    if (corpus.ContainsAll(e, kws)) expected.push_back(e);
  }
  EXPECT_EQ(Sorted(index.Query(unconstrained, kws)), expected);
}

TEST(EdgeSpKwHs, ContainsAtLeastOnHalfplane) {
  Rng rng(4451);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwHsIndex index(pts, &corpus, opt);
  for (int trial = 0; trial < 8; ++trial) {
    ConvexQuery<2> q;
    q.constraints.push_back(GenerateHalfspaceQuery(
        std::span<const Point<2>>(pts), rng.UniformDouble(0.2, 0.8), &rng));
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    const size_t truth = index.Query(q, kws).size();
    for (uint64_t t : {1, 3, 12}) {
      EXPECT_EQ(index.ContainsAtLeast(q, kws, t), truth >= t);
    }
  }
}

// --- Corpus / documents -------------------------------------------------

TEST(EdgeCorpus, DefaultConstructedIsEmpty) {
  Corpus corpus;
  EXPECT_EQ(corpus.num_objects(), 0u);
  EXPECT_EQ(corpus.total_weight(), 0u);
  EXPECT_EQ(corpus.vocab_size(), 0u);
}

TEST(EdgeCorpusDeath, EmptyDocumentRejected) {
  EXPECT_DEATH(Corpus({Document{}}), "empty document");
}

TEST(EdgeDocument, SingleKeyword) {
  Document d{42};
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.Contains(42));
  EXPECT_FALSE(d.Contains(41));
}

}  // namespace
}  // namespace kwsc
