// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the string vocabulary (keyword interning) and its end-to-end
// use building an index over string-tagged objects.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/orp_kw.h"
#include "text/vocabulary.h"

namespace kwsc {
namespace {

TEST(Vocabulary, InternIsIdempotent) {
  Vocabulary vocab;
  const KeywordId pool = vocab.Intern("pool");
  const KeywordId spa = vocab.Intern("spa");
  EXPECT_NE(pool, spa);
  EXPECT_EQ(vocab.Intern("pool"), pool);
  EXPECT_EQ(vocab.Intern("spa"), spa);
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(Vocabulary, DenseFirstSeenIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("a"), 0u);
  EXPECT_EQ(vocab.Intern("b"), 1u);
  EXPECT_EQ(vocab.Intern("c"), 2u);
  EXPECT_EQ(vocab.Intern("b"), 1u);
}

TEST(Vocabulary, FindWithoutInterning) {
  Vocabulary vocab;
  vocab.Intern("wifi");
  EXPECT_EQ(vocab.Find("wifi"), 0u);
  EXPECT_EQ(vocab.Find("sauna"), Vocabulary::kInvalidKeyword);
  EXPECT_EQ(vocab.size(), 1u);  // Find never interns.
}

TEST(Vocabulary, TermRoundTrip) {
  Vocabulary vocab;
  std::vector<std::string> words = {"alpha", "beta", "gamma", ""};
  for (const auto& w : words) vocab.Intern(w);
  for (const auto& w : words) {
    EXPECT_EQ(vocab.Term(vocab.Find(w)), w);
  }
}

TEST(Vocabulary, ManyRandomStringsStayDistinct) {
  Vocabulary vocab;
  Rng rng(4040);
  std::vector<std::string> words;
  for (int i = 0; i < 5000; ++i) {
    std::string w;
    const int len = 1 + static_cast<int>(rng.NextBounded(12));
    for (int j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    words.push_back(std::move(w));
  }
  std::vector<KeywordId> ids;
  for (const auto& w : words) ids.push_back(vocab.Intern(w));
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(vocab.Find(words[i]), ids[i]);
    EXPECT_EQ(vocab.Term(ids[i]), words[i]);
  }
}

TEST(Vocabulary, MakeDocumentSortsAndDedups) {
  Vocabulary vocab;
  Document doc = vocab.MakeDocument({"pool", "spa", "pool", "gym"});
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_TRUE(doc.Contains(vocab.Find("pool")));
  EXPECT_TRUE(doc.Contains(vocab.Find("gym")));
}

TEST(Vocabulary, EndToEndWithStringTags) {
  // The intended workflow: intern tags, build documents, index, query by
  // string through the vocabulary.
  Vocabulary vocab;
  std::vector<Document> docs = {
      vocab.MakeDocument({"pool", "parking"}),
      vocab.MakeDocument({"pool", "pets"}),
      vocab.MakeDocument({"pool", "parking", "pets"}),
  };
  std::vector<Point<2>> pts = {{{1, 1}}, {{2, 2}}, {{3, 3}}};
  Corpus corpus(docs);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  std::vector<KeywordId> kws = {vocab.Find("parking"), vocab.Find("pets")};
  auto got = index.Query(Box<2>::Everything(), kws);
  EXPECT_EQ(got, (std::vector<ObjectId>{2}));
}

}  // namespace
}  // namespace kwsc
