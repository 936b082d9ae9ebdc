// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include <gtest/gtest.h>

#include "core/orp_kw.h"
#include "text/corpus.h"

namespace kwsc {
namespace {

TEST(Smoke, BuildAndQuery) {
  std::vector<Document> docs = {{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}};
  Corpus corpus(docs);
  std::vector<Point<2>> pts = {{{0, 0}}, {{1, 1}}, {{2, 2}}, {{3, 3}}};
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  Box<2> q{{{0.5, 0.5}}, {{3.5, 3.5}}};
  std::vector<KeywordId> kws = {0, 1};
  auto result = index.Query(q, kws);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 3u);
}

}  // namespace
}  // namespace kwsc

#include "core/dim_reduction.h"

namespace kwsc {
namespace {

TEST(Smoke, DimRed3D) {
  std::vector<Document> docs;
  std::vector<Point<3>> pts;
  for (int i = 0; i < 200; ++i) {
    docs.push_back(Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 3)});
    pts.push_back({{i * 1.0, (i * 37 % 200) * 1.0, (i * 53 % 200) * 1.0}});
  }
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  Box<3> q{{{0, 0, 0}}, {{199, 199, 199}}};
  std::vector<KeywordId> kws = {0, 5};
  auto result = index.Query(q, kws);
  // Brute force.
  size_t expected = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0 && 5 + i % 3 == 5) ++expected;
  }
  EXPECT_EQ(result.size(), expected);
}

}  // namespace
}  // namespace kwsc
