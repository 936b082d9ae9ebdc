// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Differential and stress tests: every index and both baselines answer the
// same random queries over shared instances and must agree with each other
// and with brute force — across k, skew, distributions, degenerate data,
// and degenerate queries.

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/keywords_only.h"
#include "baseline/structured_only.h"
#include "common/random.h"
#include "core/lc_kw.h"
#include "core/orp_kw.h"
#include "core/sp_kw_box.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::BruteBox;
using testing::Sorted;

struct DiffParam {
  uint32_t n;
  int k;
  double zipf;
  uint32_t vocab;
  uint32_t min_doc;
  uint32_t max_doc;
  PointDistribution dist;
};

class DifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(DifferentialTest, FiveImplementationsAgree) {
  const auto p = GetParam();
  Rng rng(777000 + p.n * 13 + p.k * 7 + p.vocab);
  CorpusSpec spec;
  spec.num_objects = p.n;
  spec.vocab_size = p.vocab;
  spec.zipf_skew = p.zipf;
  spec.min_doc_len = p.min_doc;
  spec.max_doc_len = p.max_doc;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(p.n, p.dist, &rng);

  FrameworkOptions opt;
  opt.k = p.k;
  OrpKwIndex<2> orp(pts, &corpus, opt);
  SpKwBoxIndex<2> sp_box(pts, &corpus, opt);
  FrameworkOptions exact = opt;
  exact.exact_cell_tests = true;
  SpKwBoxIndex<2> sp_exact(pts, &corpus, exact);
  LcKwIndex<2> hs(pts, &corpus, opt);
  StructuredOnlyBaseline<2> structured(pts, &corpus);
  KeywordsOnlyBaseline<2> keywords(pts, &corpus);

  for (int trial = 0; trial < 8; ++trial) {
    auto box = GenerateBoxQuery(std::span<const Point<2>>(pts),
                                rng.UniformDouble(0.005, 0.8), &rng);
    const KeywordPick picks[] = {KeywordPick::kFrequent,
                                 KeywordPick::kUniform,
                                 KeywordPick::kCooccurring};
    auto kws = PickQueryKeywords(corpus, p.k, picks[trial % 3], &rng);
    const auto expected =
        BruteBox(std::span<const Point<2>>(pts), corpus, box, kws);
    const auto convex = BoxToConvexQuery(box);
    EXPECT_EQ(Sorted(orp.Query(box, kws)), expected);
    EXPECT_EQ(Sorted(sp_box.Query(convex, kws)), expected);
    EXPECT_EQ(Sorted(sp_exact.Query(convex, kws)), expected);
    EXPECT_EQ(Sorted(hs.Query(convex, kws)), expected);
    EXPECT_EQ(Sorted(structured.QueryBox(box, kws)), expected);
    EXPECT_EQ(Sorted(keywords.QueryBox(box, kws)), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Values(
        DiffParam{50, 2, 1.0, 12, 2, 4, PointDistribution::kUniform},
        DiffParam{300, 2, 0.0, 40, 2, 6, PointDistribution::kClustered},
        DiffParam{300, 3, 1.5, 25, 3, 8, PointDistribution::kDiagonal},
        DiffParam{800, 2, 1.0, 100, 2, 5, PointDistribution::kUniform},
        DiffParam{800, 4, 0.8, 30, 4, 9, PointDistribution::kClustered},
        DiffParam{1500, 2, 2.0, 60, 2, 6, PointDistribution::kUniform},
        DiffParam{400, 5, 0.5, 20, 5, 10, PointDistribution::kUniform},
        DiffParam{400, 6, 0.5, 18, 6, 12, PointDistribution::kClustered}));

TEST(Degenerate, AllPointsIdentical) {
  Rng rng(881);
  const uint32_t n = 200;
  std::vector<Document> docs;
  std::vector<Point<2>> pts(n, Point<2>{{0.5, 0.5}});
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 4),
                            static_cast<KeywordId>(4 + i % 3)});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> orp(pts, &corpus, opt);
  SpKwBoxIndex<2> sp(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 4};
  const auto expected = BruteBox(std::span<const Point<2>>(pts), corpus,
                                 Box<2>{{{0, 0}}, {{1, 1}}}, kws);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(orp.Query({{{0, 0}}, {{1, 1}}}, kws)), expected);
  EXPECT_EQ(Sorted(sp.Query(BoxToConvexQuery(Box<2>{{{0, 0}}, {{1, 1}}}),
                            kws)),
            expected);
  // A box missing the shared location reports nothing.
  EXPECT_TRUE(orp.Query({{{0.6, 0.6}}, {{1, 1}}}, kws).empty());
}

TEST(Degenerate, SingleObject) {
  Corpus corpus({Document{3, 7}});
  std::vector<Point<2>> pts = {{{0.25, 0.75}}};
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> hit = {3, 7};
  std::vector<KeywordId> miss = {3, 8};
  EXPECT_EQ(index.Query(Box<2>::Everything(), hit).size(), 1u);
  EXPECT_TRUE(index.Query(Box<2>::Everything(), miss).empty());
  EXPECT_TRUE(index.Query({{{0.3, 0}}, {{1, 1}}}, hit).empty());
}

TEST(Degenerate, IdenticalDocumentsEverywhere) {
  Rng rng(882);
  const uint32_t n = 300;
  std::vector<Document> docs(n, Document{0, 1, 2});
  auto pts = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 3;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {0, 1, 2};
  for (int trial = 0; trial < 10; ++trial) {
    auto q = GenerateBoxQuery(std::span<const Point<2>>(pts), 0.2, &rng);
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteBox(std::span<const Point<2>>(pts), corpus, q, kws));
  }
}

TEST(Degenerate, PointBoxQuery) {
  // A zero-volume query box exactly on a data point.
  Rng rng(883);
  CorpusSpec spec;
  spec.num_objects = 150;
  spec.vocab_size = 10;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(150, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (ObjectId e = 0; e < 20; ++e) {
    Box<2> q{pts[e], pts[e]};
    const DocumentView doc = corpus.doc(e);
    if (doc.size() < 2) continue;
    std::vector<KeywordId> kws = {doc.keywords()[0], doc.keywords()[1]};
    auto got = index.Query(q, kws);
    EXPECT_EQ(Sorted(got),
              BruteBox(std::span<const Point<2>>(pts), corpus, q, kws));
    EXPECT_TRUE(std::find(got.begin(), got.end(), e) != got.end());
  }
}

TEST(Degenerate, ExtremeCoordinates) {
  Rng rng(884);
  const uint32_t n = 200;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 4)});
    pts.push_back({{rng.UniformDouble(-1e9, 1e9),
                    rng.UniformDouble(-1e-9, 1e-9)}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    Box<2> q{{{rng.UniformDouble(-1e9, 0), rng.UniformDouble(-1e-9, 0)}},
             {{rng.UniformDouble(0, 1e9), rng.UniformDouble(0, 1e-9)}}};
    std::vector<KeywordId> kws = {static_cast<KeywordId>(trial % 5),
                                  static_cast<KeywordId>(5 + trial % 4)};
    EXPECT_EQ(Sorted(index.Query(q, kws)),
              BruteBox(std::span<const Point<2>>(pts), corpus, q, kws));
  }
}

TEST(Degenerate, KEqualsDocumentSize) {
  // Every document has exactly k keywords; only exact-match objects report.
  Rng rng(885);
  const int k = 4;
  std::vector<Document> docs;
  std::vector<Point<2>> pts;
  for (uint32_t i = 0; i < 400; ++i) {
    std::vector<KeywordId> kws;
    for (int j = 0; j < k; ++j) {
      kws.push_back(static_cast<KeywordId>((i + j * 7) % 12));
    }
    docs.emplace_back(std::move(kws));
    pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
  }
  // Some generated docs may dedup below size k; keep only full ones by
  // padding with a unique filler keyword.
  for (uint32_t i = 0; i < docs.size(); ++i) {
    if (docs[i].size() < static_cast<size_t>(k)) {
      std::vector<KeywordId> padded(docs[i].begin(), docs[i].end());
      while (padded.size() < static_cast<size_t>(k)) {
        padded.push_back(static_cast<KeywordId>(100 + i));
      }
      docs[i] = Document(padded);
    }
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = k;
  OrpKwIndex<2> index(pts, &corpus, opt);
  for (int trial = 0; trial < 10; ++trial) {
    const ObjectId e = static_cast<ObjectId>(rng.NextBounded(400));
    std::vector<KeywordId> kws(corpus.doc(e).begin(), corpus.doc(e).end());
    kws.resize(k);
    auto got = index.Query(Box<2>::Everything(), kws);
    std::vector<ObjectId> expected;
    for (ObjectId f = 0; f < corpus.num_objects(); ++f) {
      if (corpus.ContainsAll(f, kws)) expected.push_back(f);
    }
    EXPECT_EQ(Sorted(got), expected);
    EXPECT_FALSE(got.empty());  // At least object e itself.
  }
}

}  // namespace
}  // namespace kwsc
