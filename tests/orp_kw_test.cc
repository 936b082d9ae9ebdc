// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Correctness and behaviour tests for the Theorem-1 index (kd-tree
// transformation). The central property: for any dataset and any query, the
// index reports exactly q ∩ D(w1,...,wk).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/flat_arena.h"
#include "common/random.h"
#include "core/orp_kw.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::Sorted;

struct OrpParam {
  uint32_t n;
  int k;
  double zipf;
  PointDistribution dist;
  double selectivity;
  KeywordPick pick;
};

class OrpKwPropertyTest : public ::testing::TestWithParam<OrpParam> {};

TEST_P(OrpKwPropertyTest, MatchesBruteForce) {
  const auto p = GetParam();
  Rng rng(9000 + p.n * 7 + p.k);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(20, p.n / 20);
  spec.zipf_skew = p.zipf;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);
  FrameworkOptions opt;
  opt.k = p.k;
  OrpKwIndex<2> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);

  for (int trial = 0; trial < 12; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts), p.selectivity,
                              &rng);
    auto kws = PickQueryKeywords(corpus, p.k, p.pick, &rng);
    QueryStats stats;
    auto got = index.Query(q, kws, &stats);
    auto expected = BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
    ASSERT_EQ(Sorted(got), expected) << "trial " << trial;
    EXPECT_EQ(stats.results, expected.size());
    EXPECT_EQ(stats.covered_nodes + stats.crossing_nodes, stats.nodes_visited);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrpKwPropertyTest,
    ::testing::Values(
        OrpParam{60, 2, 1.0, PointDistribution::kUniform, 0.2,
                 KeywordPick::kFrequent},
        OrpParam{200, 2, 1.0, PointDistribution::kUniform, 0.1,
                 KeywordPick::kCooccurring},
        OrpParam{200, 3, 0.8, PointDistribution::kClustered, 0.3,
                 KeywordPick::kFrequent},
        OrpParam{500, 2, 1.2, PointDistribution::kClustered, 0.05,
                 KeywordPick::kUniform},
        OrpParam{500, 4, 1.0, PointDistribution::kDiagonal, 0.5,
                 KeywordPick::kCooccurring},
        OrpParam{1500, 2, 1.0, PointDistribution::kUniform, 0.02,
                 KeywordPick::kFrequent},
        OrpParam{1500, 3, 1.5, PointDistribution::kClustered, 0.1,
                 KeywordPick::kCooccurring},
        OrpParam{3000, 2, 0.5, PointDistribution::kUniform, 0.01,
                 KeywordPick::kUniform}));

TEST(OrpKw, TiedCoordinatesHandledByRankSpace) {
  // Many objects share coordinates; Section 3.4's rank-space reduction must
  // keep results exact.
  Rng rng(42);
  const uint32_t n = 400;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 7),
                            static_cast<KeywordId>(7 + i % 4)});
    pts.push_back({{std::floor(rng.UniformDouble(0, 5)),
                    std::floor(rng.UniformDouble(0, 5))}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);
  for (int trial = 0; trial < 30; ++trial) {
    Box<2> q;
    for (int dim = 0; dim < 2; ++dim) {
      double a = rng.UniformDouble(-1, 6);
      double b = rng.UniformDouble(-1, 6);
      q.lo[dim] = std::min(a, b);
      q.hi[dim] = std::max(a, b);
    }
    std::vector<KeywordId> kws = {static_cast<KeywordId>(trial % 7),
                                  static_cast<KeywordId>(7 + trial % 4)};
    auto got = index.Query(q, kws);
    auto expected = BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
    EXPECT_EQ(Sorted(got), expected);
  }
}

TEST(OrpKw, OneDimensional) {
  // d = 1 (pure keyword search over a line) is within Theorem 1's scope.
  std::vector<Document> docs;
  std::vector<Point<1>> pts;
  for (uint32_t i = 0; i < 300; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 6)});
    pts.push_back({{static_cast<double>(i)}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<1> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {2, 8};
  Box<1> q{{{50.0}}, {{249.0}}};
  auto got = index.Query(q, kws);
  auto expected = BruteBox(std::span<const Point<1>>(pts), corpus, q, kws);
  EXPECT_EQ(Sorted(got), expected);
  EXPECT_FALSE(expected.empty());
}

TEST(OrpKw, EmptyQueryRegionsReturnNothing) {
  Rng rng(5);
  CorpusSpec spec;
  spec.num_objects = 100;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(100, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  // A box strictly outside the data cube.
  EXPECT_TRUE(index.Query({{{5, 5}}, {{6, 6}}}, kws).empty());
  // An inverted (empty) box.
  EXPECT_TRUE(index.Query({{{0.9, 0.9}}, {{0.1, 0.1}}}, kws).empty());
}

// Box::Contains admits no point against a NaN bound, and so does every
// index: the built and the flat-loaded ORP-KW answer like the scan.
TEST(OrpKw, NaNBoundsMatchBruteForce) {
  Rng rng(15);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const OrpKwIndex<2> built(pts, &corpus, opt);
  const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(
      MmapFile::FromBytes(testing::SaveFlatToBytes(built)), &corpus);
  const std::vector<KeywordId> kws = {0, 1};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // With the NaN bound read as unbounded, these boxes would hold objects.
  ASSERT_FALSE(built.Query(Box<2>::Everything(), kws).empty());
  for (int dim = 0; dim < 2; ++dim) {
    for (const bool nan_lo : {true, false}) {
      Box<2> q{{{0.0, 0.0}}, {{0.5, 1.0}}};
      (nan_lo ? q.lo : q.hi)[dim] = nan;
      const auto expected =
          BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
      EXPECT_EQ(Sorted(built.Query(q, kws)), expected) << dim << nan_lo;
      EXPECT_EQ(Sorted(loaded.Query(q, kws)), expected) << dim << nan_lo;
    }
  }
}

TEST(OrpKw, WholeSpaceQueryEqualsPureKeywordSearch) {
  // The k-SI reduction of Section 1.2: q := R^d.
  Rng rng(6);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    auto got = index.Query(Box<2>::Everything(), kws);
    std::vector<ObjectId> expected;
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      if (corpus.ContainsAll(e, kws)) expected.push_back(e);
    }
    EXPECT_EQ(Sorted(got), expected);
    EXPECT_FALSE(expected.empty());  // kCooccurring plants a witness.
  }
}

TEST(OrpKw, AblationModesPreserveResults) {
  // Disabling tuple pruning and/or materialized lists must not change the
  // answer, only the work (ablation A2's precondition).
  Rng rng(7);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(400, PointDistribution::kUniform, &rng);

  FrameworkOptions base;
  base.k = 2;
  FrameworkOptions no_tuples = base;
  no_tuples.enable_tuple_pruning = false;
  FrameworkOptions no_lists = base;
  no_lists.enable_materialized_lists = false;

  OrpKwIndex<2> index_base(pts, &corpus, base);
  OrpKwIndex<2> index_nt(pts, &corpus, no_tuples);
  OrpKwIndex<2> index_nl(pts, &corpus, no_lists);

  for (int trial = 0; trial < 15; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts), 0.2, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    auto expected = BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
    EXPECT_EQ(Sorted(index_base.Query(q, kws)), expected);
    EXPECT_EQ(Sorted(index_nt.Query(q, kws)), expected);
    EXPECT_EQ(Sorted(index_nl.Query(q, kws)), expected);
  }
}

TEST(OrpKw, ThresholdExponentSweepPreservesResults) {
  // Ablation A1: any alpha in (0, 1) yields a correct (if slower) index.
  Rng rng(8);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(300, PointDistribution::kUniform, &rng);
  for (double alpha : {0.25, 0.5, 0.75, 0.9}) {
    FrameworkOptions opt;
    opt.k = 2;
    opt.alpha = alpha;
    OrpKwIndex<2> index(pts, &corpus, opt);
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts), 0.3, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteBox(std::span<const Point<2>>(pts), corpus, q, kws))
        << "alpha " << alpha;
  }
}

TEST(OrpKw, BudgetExhaustionStopsEarlyAndFlags) {
  Rng rng(9);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 10;  // Dense keywords: large outputs.
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  QueryStats stats;
  OpsBudget budget(50);
  auto got = index.Query(Box<2>::Everything(), kws, &stats, &budget);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LE(budget.spent(), 52u);  // Stops promptly after the cap.
  // An unbudgeted run returns strictly more.
  auto full = index.Query(Box<2>::Everything(), kws);
  EXPECT_GT(full.size(), got.size());
}

TEST(OrpKw, ContainsAtLeastAgreesWithTruth) {
  Rng rng(10);
  CorpusSpec spec;
  spec.num_objects = 1000;
  spec.vocab_size = 25;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(1000, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 20; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts),
                              rng.UniformDouble(0.05, 0.6), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    const size_t truth =
        BruteBox(std::span<const Point<2>>(pts), corpus, q, kws).size();
    for (uint64_t t : {1, 2, 5, 20}) {
      EXPECT_EQ(index.ContainsAtLeast(q, kws, t), truth >= t)
          << "t=" << t << " truth=" << truth;
    }
  }
}

TEST(OrpKw, StreamingEmitStopsOnFalse) {
  Rng rng(11);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 10;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  int emitted = 0;
  index.QueryEmit(Box<2>::Everything(), kws, [&emitted](ObjectId) {
    return ++emitted < 3;
  });
  EXPECT_EQ(emitted, 3);
}

TEST(OrpKw, DepthIsLogarithmic) {
  // The weight-balanced splits guarantee O(log N) height.
  Rng rng(12);
  CorpusSpec spec;
  spec.num_objects = 4096;
  spec.vocab_size = 100;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(4096, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  // N = total weight <= 4096 * 8; depth should be well under 2 * log2(N).
  const double log_n = std::log2(static_cast<double>(corpus.total_weight()));
  EXPECT_LE(index.Depth(), static_cast<int>(2 * log_n) + 2);
}

TEST(OrpKw, MemoryIsReported) {
  Rng rng(13);
  CorpusSpec spec;
  spec.num_objects = 200;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(200, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  EXPECT_GT(index.MemoryBytes(), 0u);
  EXPECT_GT(index.num_nodes(), 10u);
}

TEST(OrpKwDeath, RejectsWrongKeywordCount) {
  Rng rng(14);
  CorpusSpec spec;
  spec.num_objects = 50;
  spec.vocab_size = 10;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(50, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> one = {3};
  EXPECT_DEATH(index.Query(Box<2>::Everything(), one), "exactly k");
  std::vector<KeywordId> dup = {3, 3};
  EXPECT_DEATH(index.Query(Box<2>::Everything(), dup), "distinct");
}

}  // namespace
}  // namespace kwsc
