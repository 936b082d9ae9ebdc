// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the partition-tree transformation (Appendix D / Theorems 5, 12):
// the box-cell substrate in 2-4 dimensions and the ham-sandwich substrate in
// the plane, against brute force over halfspace-conjunction queries.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lc_kw.h"
#include "core/sp_kw_box.h"
#include "core/sp_kw_hs.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::BruteConvex;
using testing::Sorted;

struct SpParam {
  uint32_t n;
  int k;
  int num_constraints;
  PointDistribution dist;
};

class SpKwBox2DTest : public ::testing::TestWithParam<SpParam> {};

TEST_P(SpKwBox2DTest, MatchesBruteForce) {
  const auto p = GetParam();
  Rng rng(70000 + p.n * 3 + p.k + p.num_constraints);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(20, p.n / 15);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);
  FrameworkOptions opt;
  opt.k = p.k;
  SpKwBoxIndex<2> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);
  for (int trial = 0; trial < 10; ++trial) {
    ConvexQuery<2> q;
    for (int i = 0; i < p.num_constraints; ++i) {
      q.constraints.push_back(GenerateHalfspaceQuery(
          std::span<const Point<2>>(pts), rng.UniformDouble(0.2, 0.9), &rng));
    }
    auto kws = PickQueryKeywords(
        corpus, p.k,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    auto got = index.Query(q, kws);
    auto expected = BruteConvex(std::span<const Point<2>>(pts), corpus, q,
                                kws);
    ASSERT_EQ(Sorted(got), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpKwBox2DTest,
    ::testing::Values(SpParam{100, 2, 1, PointDistribution::kUniform},
                      SpParam{400, 2, 2, PointDistribution::kClustered},
                      SpParam{400, 3, 3, PointDistribution::kUniform},
                      SpParam{1000, 2, 3, PointDistribution::kDiagonal},
                      SpParam{1000, 3, 1, PointDistribution::kClustered}));

TEST(SpKwBox, ThreeDimensions) {
  Rng rng(71);
  const uint32_t n = 600;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwBoxIndex<3> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);
  for (int trial = 0; trial < 10; ++trial) {
    ConvexQuery<3> q;
    const int s = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < s; ++i) {
      q.constraints.push_back(GenerateHalfspaceQuery(
          std::span<const Point<3>>(pts), rng.UniformDouble(0.3, 0.9), &rng));
    }
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteConvex(std::span<const Point<3>>(pts), corpus, q, kws));
  }
}

class SpKwHsTest : public ::testing::TestWithParam<SpParam> {};

TEST_P(SpKwHsTest, MatchesBruteForce) {
  const auto p = GetParam();
  Rng rng(80000 + p.n * 5 + p.k + p.num_constraints);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(20, p.n / 15);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);
  FrameworkOptions opt;
  opt.k = p.k;
  SpKwHsIndex index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    ConvexQuery<2> q;
    for (int i = 0; i < p.num_constraints; ++i) {
      q.constraints.push_back(GenerateHalfspaceQuery(
          std::span<const Point<2>>(pts), rng.UniformDouble(0.2, 0.9), &rng));
    }
    auto kws = PickQueryKeywords(
        corpus, p.k,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    auto got = index.Query(q, kws);
    auto expected = BruteConvex(std::span<const Point<2>>(pts), corpus, q,
                                kws);
    ASSERT_EQ(Sorted(got), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpKwHsTest,
    ::testing::Values(SpParam{100, 2, 1, PointDistribution::kUniform},
                      SpParam{500, 2, 2, PointDistribution::kClustered},
                      SpParam{500, 3, 3, PointDistribution::kUniform},
                      SpParam{1200, 2, 1, PointDistribution::kDiagonal},
                      SpParam{1200, 2, 3, PointDistribution::kUniform}));

TEST(SpKwHs, TriangleQuery) {
  // A 2-simplex (triangle) query: the SP-KW problem statement verbatim.
  Rng rng(73);
  const uint32_t n = 800;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwHsIndex index(pts, &corpus, opt);
  // Triangle with CCW vertices (0.2,0.2), (0.9,0.3), (0.5,0.9): interior is
  // to the left of each directed edge, i.e. cross(b-a, p-a) >= 0, which as a
  // halfspace reads (a_y-b_y) x + (b_x-a_x) y <= a_y b_x - a_x b_y... built
  // explicitly below.
  const Point<2> a{{0.2, 0.2}};
  const Point<2> b{{0.9, 0.3}};
  const Point<2> c{{0.5, 0.9}};
  auto edge = [](const Point<2>& u, const Point<2>& v) {
    // Points p with cross(v-u, p-u) >= 0 (left of u->v):
    // -(v_y-u_y) p_x + (v_x-u_x) p_y >= u_y(v_x-u_x) - u_x(v_y-u_y)
    // As <= form: (v_y-u_y) p_x - (v_x-u_x) p_y <= u_x(v_y-u_y)-u_y(v_x-u_x).
    Halfspace<2> h;
    h.coeffs = {v[1] - u[1], -(v[0] - u[0])};
    h.rhs = u[0] * (v[1] - u[1]) - u[1] * (v[0] - u[0]);
    return h;
  };
  ConvexQuery<2> q;
  q.constraints = {edge(a, b), edge(b, c), edge(c, a)};
  // Sanity: the centroid is inside.
  ASSERT_TRUE(q.Satisfies({{(a[0] + b[0] + c[0]) / 3,
                            (a[1] + b[1] + c[1]) / 3}}));
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  EXPECT_EQ(Sorted(index.Query(q, kws)),
            BruteConvex(std::span<const Point<2>>(pts), corpus, q, kws));
}

TEST(LcKw, BoxQueryViaConvexTranslationMatchesOrpSemantics) {
  // The Theorem-5 remark: ORP-KW can be answered by LC-KW by writing the
  // rectangle as 2d halfspaces.
  Rng rng(79);
  const uint32_t n = 600;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  LcKwIndex<2> index(pts, &corpus, opt);  // = SpKwHsIndex.
  for (int trial = 0; trial < 10; ++trial) {
    auto box = GenerateBoxQuery(std::span<const Point<2>>(pts), 0.2, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    auto got = index.Query(BoxToConvexQuery(box), kws);
    EXPECT_EQ(Sorted(got),
              BruteBox(std::span<const Point<2>>(pts), corpus, box, kws));
  }
}

TEST(LcKw, SubstrateSelection) {
  static_assert(std::is_same_v<LcKwIndex<2>, SpKwHsIndex>);
  static_assert(std::is_same_v<LcKwIndex<3>, SpKwBoxIndex<3, double>>);
}

TEST(SpKwBox, TiedCoordinates) {
  // Grid data with heavy coordinate ties exercises the deterministic
  // (coordinate, id) perturbation of Appendix D.4.
  Rng rng(83);
  const uint32_t n = 400;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 4)});
    pts.push_back({{std::floor(rng.UniformDouble(0, 3)),
                    std::floor(rng.UniformDouble(0, 3))}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwBoxIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 20; ++trial) {
    ConvexQuery<2> q;
    q.constraints.push_back({{{rng.UniformDouble(-1, 1),
                               rng.UniformDouble(-1, 1)}},
                             rng.UniformDouble(-2, 4)});
    std::vector<KeywordId> kws = {static_cast<KeywordId>(trial % 5),
                                  static_cast<KeywordId>(5 + trial % 4)};
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteConvex(std::span<const Point<2>>(pts), corpus, q, kws));
  }
}

TEST(SpKwBox, ContainsAtLeast) {
  Rng rng(89);
  const uint32_t n = 700;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwBoxIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    ConvexQuery<2> q;
    q.constraints.push_back(GenerateHalfspaceQuery(
        std::span<const Point<2>>(pts), rng.UniformDouble(0.2, 0.8), &rng));
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    const size_t truth =
        BruteConvex(std::span<const Point<2>>(pts), corpus, q, kws).size();
    for (uint64_t t : {1, 4, 16}) {
      EXPECT_EQ(index.ContainsAtLeast(q, kws, t), truth >= t);
    }
  }
}

TEST(SpKwHs, StatsAccounting) {
  Rng rng(97);
  const uint32_t n = 500;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SpKwHsIndex index(pts, &corpus, opt);
  ConvexQuery<2> q;
  q.constraints.push_back(GenerateHalfspaceQuery(
      std::span<const Point<2>>(pts), 0.5, &rng));
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  QueryStats stats;
  auto got = index.Query(q, kws, &stats);
  EXPECT_EQ(stats.results, got.size());
  EXPECT_EQ(stats.covered_nodes + stats.crossing_nodes, stats.nodes_visited);
  EXPECT_GT(stats.nodes_visited, 0u);
}

}  // namespace
}  // namespace kwsc
