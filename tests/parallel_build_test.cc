// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Determinism contract of the parallel build: for every thread count, the
// constructed index is the SAME index — not just query-equivalent but
// byte-identical under SaveFlat. Forked subtrees build into private arenas that
// are spliced back in DFS preorder, so node layout, child indices, and every
// node directory match the sequential build exactly. These tests pin that
// contract, plus the degenerate-weight fix in WeightedMedianIndex.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "core/dim_reduction.h"
#include "core/framework.h"
#include "core/orp_kw.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::SaveFlatToBytes;
using testing::Sorted;

TEST(ParallelBuild, OrpKwSaveBytesIdenticalAcrossThreadCounts) {
  Rng rng(7101);
  CorpusSpec spec;
  spec.num_objects = 3000;
  spec.vocab_size = 150;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(3000, PointDistribution::kClustered, &rng);

  FrameworkOptions opt;
  opt.k = 2;
  opt.num_threads = 1;
  OrpKwIndex<2> sequential(pts, &corpus, opt);
  const std::string expected = SaveFlatToBytes(sequential);

  for (int threads : {2, 4, 8}) {
    opt.num_threads = threads;
    OrpKwIndex<2> parallel(pts, &corpus, opt);
    EXPECT_EQ(parallel.num_nodes(), sequential.num_nodes());
    ASSERT_EQ(SaveFlatToBytes(parallel), expected)
        << "num_threads=" << threads;
  }
}

TEST(ParallelBuild, OrpKwSaveBytesIdenticalForK3) {
  Rng rng(7102);
  CorpusSpec spec;
  spec.num_objects = 1500;
  spec.vocab_size = 80;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(1500, PointDistribution::kUniform, &rng);

  FrameworkOptions opt;
  opt.k = 3;
  opt.num_threads = 1;
  OrpKwIndex<2> sequential(pts, &corpus, opt);
  opt.num_threads = 4;
  OrpKwIndex<2> parallel(pts, &corpus, opt);
  ASSERT_EQ(SaveFlatToBytes(parallel), SaveFlatToBytes(sequential));
}

TEST(ParallelBuild, OrpKwParallelAnswersMatchOracle) {
  Rng rng(7103);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 120;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  opt.num_threads = 4;
  OrpKwIndex<2> index(pts, &corpus, opt);

  for (int trial = 0; trial < 20; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts),
                              rng.UniformDouble(0.01, 0.4), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    auto got = index.Query(q, kws);
    auto expected = BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
    ASSERT_EQ(Sorted(got), expected) << "trial " << trial;
  }
}

TEST(ParallelBuild, DimRedSameTreeAndAnswersAcrossThreadCounts) {
  Rng rng(7104);
  CorpusSpec spec;
  spec.num_objects = 900;
  spec.vocab_size = 90;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<3>(900, PointDistribution::kUniform, &rng);

  FrameworkOptions opt;
  opt.k = 2;
  opt.num_threads = 1;
  DimRedOrpKwIndex<3> sequential(pts, &corpus, opt);
  opt.num_threads = 4;
  DimRedOrpKwIndex<3> parallel(pts, &corpus, opt);

  ASSERT_EQ(parallel.num_nodes(), sequential.num_nodes());
  const DimRedShape seq_shape = sequential.Shape();
  const DimRedShape par_shape = parallel.Shape();
  EXPECT_EQ(par_shape.levels, seq_shape.levels);
  EXPECT_EQ(par_shape.nodes_per_level, seq_shape.nodes_per_level);
  EXPECT_EQ(par_shape.max_fanout_per_level, seq_shape.max_fanout_per_level);

  for (int trial = 0; trial < 12; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<3>>(pts),
                              rng.UniformDouble(0.05, 0.5), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
    // Exact vector equality: identical trees must produce identical
    // emission orders, not merely identical sets.
    ASSERT_EQ(parallel.Query(q, kws), sequential.Query(q, kws))
        << "trial " << trial;
  }
}

TEST(WeightedMedian, PrefixRuleMatchesSpec) {
  const std::vector<uint64_t> uniform = {1, 1, 1, 1, 1};
  EXPECT_EQ(WeightedMedianIndex(uniform.size(),
                                [&](size_t i) { return uniform[i]; }),
            2u);
  const std::vector<uint64_t> skewed = {1, 1, 6, 1, 1};
  EXPECT_EQ(WeightedMedianIndex(skewed.size(),
                                [&](size_t i) { return skewed[i]; }),
            2u);
  EXPECT_EQ(WeightedMedianIndex(1, [](size_t) { return uint64_t{5}; }), 0u);
}

TEST(WeightedMedian, DominantWeightFallsBackToCardinalityMedian) {
  // All weight on the first element: the prefix rule would return 0 and the
  // split would produce an empty left child plus a right child holding
  // everything else — the degenerate chain the fallback exists to break.
  const std::vector<uint64_t> front = {100, 1, 1, 1, 1};
  EXPECT_EQ(WeightedMedianIndex(front.size(),
                                [&](size_t i) { return front[i]; }),
            2u);
  // All weight on the last element: mirrored degeneracy.
  const std::vector<uint64_t> back = {1, 1, 1, 1, 100};
  EXPECT_EQ(WeightedMedianIndex(back.size(),
                                [&](size_t i) { return back[i]; }),
            2u);
  // n == 2 has no non-degenerate option; the prefix rule stands.
  const std::vector<uint64_t> pair = {9, 1};
  EXPECT_EQ(WeightedMedianIndex(pair.size(),
                                [&](size_t i) { return pair[i]; }),
            0u);
}

TEST(WeightedMedian, SkewedCorpusBuildsShallowTreeAndAnswersCorrectly) {
  // Geometric document sizes arranged so heavy documents sort first on both
  // dimensions — the layout that used to trigger one-pivot-per-level
  // peeling. Depth must stay logarithmic-ish and answers exact.
  const uint32_t n = 400;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  Rng rng(7105);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t size = i < 8 ? (256u >> i) : 1u;
    std::vector<KeywordId> kws;
    for (uint32_t w = 0; w < std::max(1u, size); ++w) {
      kws.push_back(w);  // Heavy docs contain keywords 0..size-1.
    }
    docs.push_back(Document(std::move(kws)));
    Point<2> p;
    p[0] = static_cast<double>(i);
    p[1] = static_cast<double>(i);
    pts.push_back(p);
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  const double log_bound =
      2.0 * std::log2(static_cast<double>(corpus.total_weight())) + 2.0;
  EXPECT_LE(index.Depth(), static_cast<int>(log_bound));

  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts),
                              rng.UniformDouble(0.05, 0.6), &rng);
    const std::vector<KeywordId> kws = {0, 1};
    auto expected = BruteBox(std::span<const Point<2>>(pts), corpus, q, kws);
    ASSERT_EQ(Sorted(index.Query(q, kws)), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace kwsc
