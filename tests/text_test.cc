// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Unit tests for src/text: documents, the corpus, and the inverted index.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "common/flat_arena.h"
#include "common/random.h"
#include "text/corpus.h"
#include "text/document.h"
#include "text/inverted_index.h"

namespace kwsc {
namespace {

TEST(Document, SortsAndDeduplicates) {
  Document d({5, 1, 3, 1, 5});
  EXPECT_EQ(d.keywords(), (std::vector<KeywordId>{1, 3, 5}));
  EXPECT_EQ(d.size(), 3u);
}

TEST(Document, Contains) {
  Document d({2, 4, 8});
  EXPECT_TRUE(d.Contains(2));
  EXPECT_TRUE(d.Contains(8));
  EXPECT_FALSE(d.Contains(3));
  EXPECT_FALSE(d.Contains(0));
}

TEST(Document, ContainsAll) {
  Document d({1, 2, 3, 4});
  KeywordId all[] = {1, 3};
  KeywordId miss[] = {1, 9};
  EXPECT_TRUE(d.ContainsAll(all, 2));
  EXPECT_FALSE(d.ContainsAll(miss, 2));
  EXPECT_TRUE(d.ContainsAll(nullptr, 0));
}

TEST(Corpus, TotalWeightIsEquationTwo) {
  // N = sum of |e.Doc| over all objects (Eq. (2) of the paper).
  Corpus corpus({Document{1, 2}, Document{3}, Document{1, 2, 3, 4}});
  EXPECT_EQ(corpus.total_weight(), 7u);
  EXPECT_EQ(corpus.num_objects(), 3u);
  EXPECT_EQ(corpus.vocab_size(), 5u);
}

TEST(Corpus, ContainsMatchesDocument) {
  Corpus corpus({Document{1, 5}, Document{2}});
  EXPECT_TRUE(corpus.Contains(0, 1));
  EXPECT_TRUE(corpus.Contains(0, 5));
  EXPECT_FALSE(corpus.Contains(0, 2));
  EXPECT_TRUE(corpus.Contains(1, 2));
}

TEST(Corpus, ContainsAllSpan) {
  Corpus corpus({Document{1, 2, 3}});
  std::vector<KeywordId> yes = {1, 3};
  std::vector<KeywordId> no = {1, 4};
  EXPECT_TRUE(corpus.ContainsAll(0, yes));
  EXPECT_FALSE(corpus.ContainsAll(0, no));
}

// Keyword ids in groups of four that share one signature bit, so a
// document holding one member of a group passes the signature test for the
// other three: the exact search has to tell them apart.
std::vector<KeywordId> CollidingVocabulary() {
  std::map<uint64_t, std::vector<KeywordId>> by_bit;
  for (KeywordId w = 0; w < 4096; ++w) {
    std::vector<KeywordId>& group = by_bit[Corpus::SignatureBit(w)];
    if (group.size() < 4) group.push_back(w);
  }
  std::vector<KeywordId> vocab;
  for (const auto& [bit, group] : by_bit) {
    vocab.insert(vocab.end(), group.begin(), group.end());
  }
  return vocab;
}

// Documents of 1-64 keywords over the colliding vocabulary.
std::vector<std::vector<KeywordId>> CollidingDocuments(Rng* rng) {
  const std::vector<KeywordId> vocab = CollidingVocabulary();
  std::vector<std::vector<KeywordId>> docs;
  for (int i = 0; i < 400; ++i) {
    const size_t len = 1 + rng->NextBounded(64);
    std::vector<KeywordId> doc;
    while (doc.size() < len) {
      const KeywordId w = vocab[rng->NextBounded(vocab.size())];
      if (std::find(doc.begin(), doc.end(), w) == doc.end()) doc.push_back(w);
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

Corpus MakeCorpus(const std::vector<std::vector<KeywordId>>& raw) {
  std::vector<Document> docs;
  for (const std::vector<KeywordId>& doc : raw) docs.emplace_back(doc);
  return Corpus(docs);
}

bool BruteContainsAll(const std::vector<KeywordId>& doc,
                      const std::vector<KeywordId>& keywords) {
  return std::all_of(keywords.begin(), keywords.end(), [&doc](KeywordId w) {
    return std::find(doc.begin(), doc.end(), w) != doc.end();
  });
}

TEST(Corpus, MembershipMatchesBruteForceWithCollidingSignatures) {
  Rng rng(2026);
  const std::vector<std::vector<KeywordId>> raw = CollidingDocuments(&rng);
  const Corpus corpus = MakeCorpus(raw);
  const std::vector<KeywordId> vocab = CollidingVocabulary();
  uint64_t collisions = 0;
  for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
    const std::vector<KeywordId>& doc = raw[e];
    for (KeywordId w : vocab) {
      EXPECT_EQ(corpus.Contains(e, w), BruteContainsAll(doc, {w}));
    }
    for (int trial = 0; trial < 64; ++trial) {
      // Half the probes start from a keyword the document holds, so they
      // pass its signature bit; the rest are unrelated.
      std::vector<KeywordId> q;
      q.push_back(trial % 2 == 0 ? doc[rng.NextBounded(doc.size())]
                                 : vocab[rng.NextBounded(vocab.size())]);
      const size_t k = 2 + static_cast<size_t>(trial % 3 == 0);
      while (q.size() < k) {
        const KeywordId w = vocab[rng.NextBounded(vocab.size())];
        if (std::find(q.begin(), q.end(), w) == q.end()) q.push_back(w);
      }
      std::sort(q.begin(), q.end());
      const bool expected = BruteContainsAll(doc, q);
      EXPECT_EQ(corpus.ContainsAll(e, q), expected);
      // The signature never rejects a match.
      const bool may = corpus.MayContainAll(e, q);
      EXPECT_TRUE(may || !expected);
      if (may && !expected) ++collisions;
    }
  }
  // The exact search, not only the signature, decided some probes.
  EXPECT_GT(collisions, 0u);
}

TEST(Corpus, SaveLoadCopyMatchesBuiltCorpus) {
  Rng rng(2027);
  const Corpus built = MakeCorpus(CollidingDocuments(&rng));
  std::stringstream stream;
  built.Save(&stream);
  const Corpus loaded = Corpus::Load(&stream);
  ASSERT_EQ(loaded.num_objects(), built.num_objects());
  for (ObjectId e = 0; e < built.num_objects(); ++e) {
    EXPECT_EQ(loaded.doc(e), built.doc(e)) << e;
  }
  EXPECT_EQ(loaded.total_weight(), built.total_weight());
  EXPECT_EQ(loaded.vocab_size(), built.vocab_size());
  EXPECT_EQ(loaded.MemoryBytes(), built.MemoryBytes());
}

/// A corpus container holding `docs` as given: no sort, no deduplication,
/// empty documents kept. Corpus::Save only writes checked corpora, so the
/// refusals below need the container built by hand.
std::string CorpusContainer(const std::vector<std::vector<KeywordId>>& docs) {
  std::vector<uint64_t> offsets = {0};
  std::vector<KeywordId> keywords;
  for (const std::vector<KeywordId>& doc : docs) {
    keywords.insert(keywords.end(), doc.begin(), doc.end());
    offsets.push_back(keywords.size());
  }
  FlatArenaWriter writer(Corpus::kFlatFamilyTag);
  Corpus::FlatRoot root{};
  root.num_objects = docs.size();
  root.total_weight = keywords.size();
  root.offsets = writer.Slab<uint64_t>(offsets);
  root.keywords = writer.Slab<KeywordId>(keywords);
  writer.Root(root);
  return writer.Finish();
}

TEST(Corpus, HandBuiltContainerMatchesSave) {
  std::stringstream saved;
  MakeCorpus({{3, 7, 9}, {1, 4}, {2}}).Save(&saved);
  EXPECT_EQ(saved.str(), CorpusContainer({{3, 7, 9}, {1, 4}, {2}}));
}

TEST(CorpusDeath, LoadRefusesUnsortedAndDuplicatedDocuments) {
  // A document out of order or holding a keyword twice is refused, not
  // canonicalized: a corpus file is what Save wrote.
  for (const auto& docs : std::vector<std::vector<std::vector<KeywordId>>>{
           {{3, 7, 9}, {4, 1}, {2}}, {{3, 7, 9}, {1, 4, 4}, {2}}}) {
    std::stringstream stream(CorpusContainer(docs));
    EXPECT_DEATH(Corpus::Load(&stream),
                 "object 1 has keywords out of order or repeated");
  }
}

TEST(CorpusDeath, EmptyDocumentAborts) {
  EXPECT_DEATH(Corpus({Document{1}, Document{}}),
               "object 1 has an empty document");
  std::stringstream stream(CorpusContainer({{1}, {}}));
  EXPECT_DEATH(Corpus::Load(&stream),
               "object 1 has an empty or out-of-range document");
}

TEST(InvertedIndex, PostingsAreSortedAndComplete) {
  Corpus corpus({Document{0, 1}, Document{1}, Document{0, 2}});
  InvertedIndex index(corpus);
  EXPECT_EQ(index.Postings(0).size(), 2u);
  EXPECT_EQ(index.Postings(1).size(), 2u);
  EXPECT_EQ(index.Postings(2).size(), 1u);
  for (KeywordId w = 0; w < 3; ++w) {
    auto list = index.Postings(w);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  }
}

TEST(InvertedIndex, PostingsOutOfVocabEmpty) {
  Corpus corpus({Document{0}});
  InvertedIndex index(corpus);
  EXPECT_TRUE(index.Postings(99).empty());
}

TEST(InvertedIndex, IntersectPair) {
  Corpus corpus({Document{0, 1}, Document{0}, Document{0, 1, 2}});
  InvertedIndex index(corpus);
  std::vector<KeywordId> q = {0, 1};
  EXPECT_EQ(index.Intersect(q), (std::vector<ObjectId>{0, 2}));
}

TEST(InvertedIndex, IntersectWithAbsentKeywordIsEmpty) {
  Corpus corpus({Document{0, 1}});
  InvertedIndex index(corpus);
  std::vector<KeywordId> q = {0, 7};
  EXPECT_TRUE(index.Intersect(q).empty());
  EXPECT_TRUE(index.IntersectionEmpty(q));
}

TEST(InvertedIndex, EmptinessEarlyExit) {
  Corpus corpus({Document{0, 1}, Document{0, 1}});
  InvertedIndex index(corpus);
  std::vector<KeywordId> q = {0, 1};
  EXPECT_FALSE(index.IntersectionEmpty(q));
}

TEST(InvertedIndex, IntersectMatchesBruteForceRandomized) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    // Random corpus of 200 objects over 12 keywords.
    std::vector<Document> docs;
    for (int i = 0; i < 200; ++i) {
      std::vector<KeywordId> kws;
      for (KeywordId w = 0; w < 12; ++w) {
        if (rng.NextBool(0.3)) kws.push_back(w);
      }
      if (kws.empty()) kws.push_back(static_cast<KeywordId>(rng.NextBounded(12)));
      docs.emplace_back(std::move(kws));
    }
    Corpus corpus(docs);
    InvertedIndex index(corpus);
    for (int k : {2, 3, 4}) {
      std::vector<KeywordId> q;
      while (q.size() < static_cast<size_t>(k)) {
        KeywordId w = static_cast<KeywordId>(rng.NextBounded(12));
        if (std::find(q.begin(), q.end(), w) == q.end()) q.push_back(w);
      }
      std::vector<ObjectId> expected;
      for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
        if (corpus.ContainsAll(e, q)) expected.push_back(e);
      }
      EXPECT_EQ(index.Intersect(q), expected);
      EXPECT_EQ(index.IntersectionEmpty(q), expected.empty());
    }
  }
}

TEST(InvertedIndex, DuplicateQueryKeywordsTolerated) {
  Corpus corpus({Document{0, 1}, Document{0}});
  InvertedIndex index(corpus);
  std::vector<KeywordId> q = {0, 0};
  EXPECT_EQ(index.Intersect(q), (std::vector<ObjectId>{0, 1}));
}

}  // namespace
}  // namespace kwsc
