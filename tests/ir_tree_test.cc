// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the simplified IR-tree baseline: correctness against brute
// force, structural sanity of the STR bulk load, and the keyword-summary
// pruning behaviour the related-work comparison relies on.

#include <gtest/gtest.h>

#include "baseline/ir_tree.h"
#include "common/random.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::Sorted;

struct IrParam {
  uint32_t n;
  int leaf_capacity;
  PointDistribution dist;
  double selectivity;
};

class IrTreeTest : public ::testing::TestWithParam<IrParam> {};

TEST_P(IrTreeTest, MatchesBruteForce) {
  const auto p = GetParam();
  Rng rng(99000 + p.n + p.leaf_capacity);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = std::max<uint32_t>(20, p.n / 15);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);
  IrTree<2> tree(pts, &corpus, p.leaf_capacity);
  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts), p.selectivity,
                              &rng);
    auto kws = PickQueryKeywords(
        corpus, 2,
        trial % 2 == 0 ? KeywordPick::kFrequent : KeywordPick::kCooccurring,
        &rng);
    EXPECT_EQ(Sorted(tree.Query(q, kws)),
              BruteBox(std::span<const Point<2>>(pts), corpus, q, kws));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IrTreeTest,
    ::testing::Values(IrParam{60, 4, PointDistribution::kUniform, 0.3},
                      IrParam{400, 8, PointDistribution::kClustered, 0.1},
                      IrParam{400, 32, PointDistribution::kUniform, 0.05},
                      IrParam{1500, 32, PointDistribution::kDiagonal, 0.02},
                      IrParam{1500, 64, PointDistribution::kClustered, 0.2}));

TEST(IrTree, ThreeDimensional) {
  Rng rng(991);
  CorpusSpec spec;
  spec.num_objects = 600;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(600, PointDistribution::kUniform, &rng);
  IrTree<3> tree(pts, &corpus);
  for (int trial = 0; trial < 8; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<3>>(pts), 0.1, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    EXPECT_EQ(Sorted(tree.Query(q, kws)),
              BruteBox(std::span<const Point<3>>(pts), corpus, q, kws));
  }
}

TEST(IrTree, RareKeywordPrunesWithoutGeometry) {
  // A keyword appearing in exactly one object: the summary pruning should
  // route the search to one leaf-sized candidate set even for the whole
  // space.
  Rng rng(992);
  const uint32_t n = 4000;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<KeywordId> kws = {static_cast<KeywordId>(i % 8),
                                  static_cast<KeywordId>(8 + i % 4)};
    if (i == 1234) kws.push_back(99);  // The rare keyword.
    docs.emplace_back(std::move(kws));
    pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
  }
  Corpus corpus(docs);
  IrTree<2> tree(pts, &corpus);
  std::vector<KeywordId> kws = {99, static_cast<KeywordId>(1234 % 8)};
  BaselineStats stats;
  auto got = tree.Query(Box<2>::Everything(), kws, &stats);
  EXPECT_EQ(got, (std::vector<ObjectId>{1234}));
  EXPECT_LE(stats.candidates, 64u);  // One or two leaves, not the dataset.
}

TEST(IrTree, FrequentKeywordsDegenerateToRegionScan) {
  // The flip side (the paper's point): keywords in every node's summary
  // cannot prune, so the whole query region is scanned even for an empty
  // answer.
  Rng rng(993);
  const uint32_t n = 4000;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    // Keywords 0 and 1 are everywhere but never together.
    docs.push_back(Document{static_cast<KeywordId>(i % 2),
                            static_cast<KeywordId>(2 + i % 5)});
    pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
  }
  Corpus corpus(docs);
  IrTree<2> tree(pts, &corpus);
  std::vector<KeywordId> kws = {0, 1};  // Provably empty everywhere.
  BaselineStats stats;
  auto got = tree.Query(Box<2>::Everything(), kws, &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_GE(stats.candidates, n / 2);  // No pruning possible.
}

TEST(IrTree, HandlesEmptyAndSingle) {
  Corpus corpus({Document{0, 1}});
  std::vector<Point<2>> pts = {{{0.5, 0.5}}};
  IrTree<2> tree(pts, &corpus);
  std::vector<KeywordId> kws = {0, 1};
  EXPECT_EQ(tree.Query(Box<2>::Everything(), kws).size(), 1u);
  EXPECT_TRUE(tree.Query({{{0.6, 0}}, {{1, 1}}}, kws).empty());

  Corpus empty_corpus;
  IrTree<2> empty(std::span<const Point<2>>(), &empty_corpus, 4);
  EXPECT_TRUE(empty.Query(Box<2>::Everything(), kws).empty());
}

}  // namespace
}  // namespace kwsc
