// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the nearest-neighbour reductions: L∞NN-KW (Corollary 4) and
// L2NN-KW (Corollary 7), against brute-force oracles.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/nn_l2.h"
#include "core/nn_linf.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteNearest;
using testing::DistanceProfile;

struct NnParam {
  uint32_t n;
  int k;
  uint64_t t;
  PointDistribution dist;
};

class LinfNnTest : public ::testing::TestWithParam<NnParam> {};

TEST_P(LinfNnTest, MatchesBruteForceDistances) {
  const auto p = GetParam();
  Rng rng(90000 + p.n + p.k + p.t);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(15, p.n / 20);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);
  FrameworkOptions opt;
  opt.k = p.k;
  LinfNnIndex<2> index(pts, &corpus, opt);
  auto dist = [](const Point<2>& a, const Point<2>& b) {
    return LInfDistance(a, b);
  };
  for (int trial = 0; trial < 8; ++trial) {
    Point<2> q{{rng.NextDouble(), rng.NextDouble()}};
    auto kws = PickQueryKeywords(
        corpus, p.k,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    auto got = index.Query(q, p.t, kws);
    auto expected = BruteNearest(std::span<const Point<2>>(pts), corpus, q,
                                 p.t, kws, dist);
    // Compare distance profiles: with real coordinates ties are measure
    // zero, but id sets can still differ at the boundary, so distances are
    // the canonical check.
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(DistanceProfile(std::span<const Point<2>>(pts), q, got, dist),
              DistanceProfile(std::span<const Point<2>>(pts), q, expected,
                              dist))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinfNnTest,
    ::testing::Values(NnParam{150, 2, 1, PointDistribution::kUniform},
                      NnParam{600, 2, 5, PointDistribution::kClustered},
                      NnParam{600, 3, 10, PointDistribution::kUniform},
                      NnParam{1500, 2, 25, PointDistribution::kDiagonal},
                      NnParam{1500, 2, 3, PointDistribution::kClustered}));

TEST(LinfNn, FewerMatchesThanTReturnsAll) {
  // Plant exactly 3 objects with the queried keyword pair.
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  Rng rng(201);
  for (uint32_t i = 0; i < 200; ++i) {
    const bool special = i < 3;
    docs.push_back(special ? Document{0, 1}
                           : Document{2 + i % 5, 7 + i % 3});
    pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  auto got = index.Query({{0.5, 0.5}}, 10, kws);
  EXPECT_EQ(got.size(), 3u);
}

TEST(LinfNn, NoMatchesReturnsEmpty) {
  Corpus corpus({Document{0}, Document{1}});
  std::vector<Point<2>> pts = {{{0, 0}}, {{1, 1}}};
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};  // No object has both.
  EXPECT_TRUE(index.Query({{0.5, 0.5}}, 1, kws).empty());
}

TEST(LinfNn, CandidateRadiusSelection) {
  // 1-D data at 0, 10, 25; q = 9: candidates {9, 1, 16} sorted {1, 9, 16}.
  std::vector<Document> docs = {Document{0, 1}, Document{0, 1},
                                Document{0, 1}};
  std::vector<Point<1>> pts = {{{0.0}}, {{10.0}}, {{25.0}}};
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<1> index(pts, &corpus, opt);
  Point<1> q{{9.0}};
  EXPECT_DOUBLE_EQ(index.CandidateRadiusByRank(q, 1), 1.0);
  EXPECT_DOUBLE_EQ(index.CandidateRadiusByRank(q, 2), 9.0);
  EXPECT_DOUBLE_EQ(index.CandidateRadiusByRank(q, 3), 16.0);
  EXPECT_EQ(index.CandidateCount(q, 0.5), 0u);
  EXPECT_EQ(index.CandidateCount(q, 1.0), 1u);
  EXPECT_EQ(index.CandidateCount(q, 9.0), 2u);
  EXPECT_EQ(index.CandidateCount(q, 100.0), 3u);
}

TEST(LinfNn, ThreeDimensionsViaDimRed) {
  Rng rng(203);
  const uint32_t n = 400;
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 25;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(n, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<3> index(pts, &corpus, opt);
  auto dist = [](const Point<3>& a, const Point<3>& b) {
    return LInfDistance(a, b);
  };
  for (int trial = 0; trial < 5; ++trial) {
    Point<3> q{{rng.NextDouble(), rng.NextDouble(), rng.NextDouble()}};
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    auto got = index.Query(q, 5, kws);
    auto expected = BruteNearest(std::span<const Point<3>>(pts), corpus, q, 5,
                                 kws, dist);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(DistanceProfile(std::span<const Point<3>>(pts), q, got, dist),
              DistanceProfile(std::span<const Point<3>>(pts), q, expected,
                              dist));
  }
}

class L2NnTest : public ::testing::TestWithParam<NnParam> {};

TEST_P(L2NnTest, MatchesBruteForceDistances) {
  const auto p = GetParam();
  Rng rng(95000 + p.n + p.k + p.t);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(15, p.n / 20);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GenerateIntPoints<2>(p.n, p.dist, &rng, /*max_coord=*/10000);
  FrameworkOptions opt;
  opt.k = p.k;
  L2NnIndex<2> index(pts, &corpus, opt);
  auto dist = [](const IntPoint<2>& a, const IntPoint<2>& b) {
    return L2DistanceSquared(a, b);
  };
  for (int trial = 0; trial < 6; ++trial) {
    IntPoint<2> q{{rng.UniformInt(0, 10000), rng.UniformInt(0, 10000)}};
    auto kws = PickQueryKeywords(
        corpus, p.k,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    auto got = index.Query(q, p.t, kws);
    auto expected = BruteNearest(std::span<const IntPoint<2>>(pts), corpus, q,
                                 p.t, kws, dist);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    EXPECT_EQ(
        DistanceProfile(std::span<const IntPoint<2>>(pts), q, got, dist),
        DistanceProfile(std::span<const IntPoint<2>>(pts), q, expected, dist))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, L2NnTest,
    ::testing::Values(NnParam{150, 2, 1, PointDistribution::kUniform},
                      NnParam{500, 2, 4, PointDistribution::kClustered},
                      NnParam{500, 3, 8, PointDistribution::kUniform},
                      NnParam{1000, 2, 16, PointDistribution::kDiagonal}));

TEST(L2Nn, ExactTiesByDistanceAreStable) {
  // Four lattice points equidistant from the query; t = 2 must return two
  // objects at exactly that distance.
  std::vector<Document> docs(4, Document{0, 1});
  std::vector<IntPoint<2>> pts = {{{1, 0}}, {{-1, 0}}, {{0, 1}}, {{0, -1}}};
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  L2NnIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  auto got = index.Query({{0, 0}}, 2, kws);
  ASSERT_EQ(got.size(), 2u);
  for (ObjectId e : got) {
    EXPECT_EQ(L2DistanceSquared(pts[e], IntPoint<2>{{0, 0}}), 1);
  }
}

TEST(L2Nn, QueryAtDataPoint) {
  std::vector<Document> docs = {Document{0, 1}, Document{0, 1},
                                Document{2, 3}};
  std::vector<IntPoint<2>> pts = {{{5, 5}}, {{100, 100}}, {{5, 5}}};
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  L2NnIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1};
  auto got = index.Query({{5, 5}}, 1, kws);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0u);  // Distance 0; object 2 lacks the keywords.
}

}  // namespace
}  // namespace kwsc
