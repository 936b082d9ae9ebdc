// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the Theorem-2 dimension-reduction index: correctness against
// brute force in 3 and 4 dimensions, plus the structural claims of Section 4
// (Propositions 1-3 and the at-most-two-type-2-nodes-per-level property of
// Figure 2).

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/dim_reduction.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::Sorted;

struct DimRedParam {
  uint32_t n;
  int k;
  PointDistribution dist;
  double selectivity;
};

class DimRed3DTest : public ::testing::TestWithParam<DimRedParam> {};

TEST_P(DimRed3DTest, MatchesBruteForce) {
  const auto p = GetParam();
  Rng rng(40000 + p.n + p.k);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(20, p.n / 15);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(p.n, p.dist, &rng);
  FrameworkOptions opt;
  opt.k = p.k;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);
  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<3>>(pts), p.selectivity,
                              &rng);
    auto kws = PickQueryKeywords(
        corpus, p.k,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    QueryStats stats;
    auto got = index.Query(q, kws, &stats);
    auto expected = BruteBox(std::span<const Point<3>>(pts), corpus, q, kws);
    ASSERT_EQ(Sorted(got), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DimRed3DTest,
    ::testing::Values(DimRedParam{100, 2, PointDistribution::kUniform, 0.3},
                      DimRedParam{400, 2, PointDistribution::kClustered, 0.1},
                      DimRedParam{400, 3, PointDistribution::kUniform, 0.5},
                      DimRedParam{1200, 2, PointDistribution::kUniform, 0.05},
                      DimRedParam{1200, 3, PointDistribution::kDiagonal,
                                  0.2}));

TEST(DimRed, FourDimensionsMatchBruteForce) {
  Rng rng(41);
  const uint32_t n = 500;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<4>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<4> index(pts, &corpus, opt);
  testing::ExpectAuditClean(index);
  for (int trial = 0; trial < 8; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<4>>(pts), 0.3, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteBox(std::span<const Point<4>>(pts), corpus, q, kws));
  }
}

TEST(DimRed, TiesOnXAxisAreHandled) {
  // Several objects share x-coordinates; the (x, id) sort must keep results
  // exact across group boundaries.
  Rng rng(43);
  const uint32_t n = 300;
  std::vector<Document> docs;
  std::vector<Point<3>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 6),
                            static_cast<KeywordId>(6 + i % 5)});
    pts.push_back({{std::floor(rng.UniformDouble(0, 4)),
                    rng.NextDouble(), rng.NextDouble()}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  for (int trial = 0; trial < 20; ++trial) {
    Box<3> q;
    q.lo = {{std::floor(rng.UniformDouble(0, 4)), rng.NextDouble() * 0.5,
             rng.NextDouble() * 0.5}};
    q.hi = {{q.lo[0] + std::floor(rng.UniformDouble(0, 3)),
             q.lo[1] + 0.5, q.lo[2] + 0.5}};
    std::vector<KeywordId> kws = {static_cast<KeywordId>(trial % 6),
                                  static_cast<KeywordId>(6 + trial % 5)};
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteBox(std::span<const Point<3>>(pts), corpus, q, kws));
  }
}

TEST(DimRed, ShapeHasDoubleLogLevels) {
  // Proposition 1: O(log log N) levels. For N ~ 2^15 the bound
  // log_k(log_2 N) + c is tiny; assert a generous cap of 8.
  Rng rng(47);
  const uint32_t n = 4000;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 200;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  const auto shape = index.Shape();
  EXPECT_LE(shape.levels, 8);
  EXPECT_GE(shape.levels, 2);
  // Fanout schedule: max fanout grows with depth until saturation
  // (Eq. (10)); level 0 is exactly 4 for k = 2.
  ASSERT_FALSE(shape.max_fanout_per_level.empty());
  EXPECT_EQ(shape.max_fanout_per_level[0], 4u);
}

TEST(DimRed, AtMostTwoType2NodesPerLevel) {
  // The Figure-2 property: each level contributes at most two type-2 nodes.
  Rng rng(53);
  const uint32_t n = 3000;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 150;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  for (int trial = 0; trial < 25; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<3>>(pts),
                              rng.UniformDouble(0.01, 0.9), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    QueryStats stats;
    index.Query(q, kws, &stats);
    for (size_t level = 0; level < stats.type2_per_level.size(); ++level) {
      EXPECT_LE(stats.type2_per_level[level], 2u)
          << "level " << level << " trial " << trial;
    }
  }
}

TEST(DimRed, FanoutBoundedByProposition3) {
  // Proposition 3: f_u = O(N^{1-1/k}).
  Rng rng(59);
  const uint32_t n = 4000;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 150;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  const auto shape = index.Shape();
  const double bound =
      8.0 * std::pow(static_cast<double>(corpus.total_weight()), 0.5);
  for (uint64_t f : shape.max_fanout_per_level) {
    EXPECT_LE(static_cast<double>(f), bound);
  }
}

TEST(DimRed, ContainsAtLeastAgreesWithTruth) {
  Rng rng(61);
  const uint32_t n = 800;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<3>>(pts), 0.4, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    const size_t truth =
        BruteBox(std::span<const Point<3>>(pts), corpus, q, kws).size();
    for (uint64_t t : {1, 3, 10}) {
      EXPECT_EQ(index.ContainsAtLeast(q, kws, t), truth >= t);
    }
  }
}

TEST(DimRed, MemoryGrowsWithSecondaryStructures) {
  Rng rng(67);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  // The root alone duplicates the corpus into a secondary structure, so the
  // index must be bigger than the corpus.
  EXPECT_GT(index.MemoryBytes(), corpus.MemoryBytes());
}

}  // namespace
}  // namespace kwsc
