// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the secondary structure T_u (Section 3.2): large/small
// classification, the tuple registry, and the materialization rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "common/random.h"
#include "core/flat_format.h"
#include "core/node_directory.h"
#include "geom/box.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

// One node's directory as an index holds it: the builder's output appended
// to a pool set, and a view over those pools.
struct BuiltDirectory {
  FlatDirPoolWriter pools;
  FlatDirView view;

  BuiltDirectory(const BuiltDirectory&) = delete;
  explicit BuiltDirectory(const DirectoryContents& contents) {
    FlatNodeRec<Box<1>> rec{};
    pools.Append(contents, &rec);
    const FlatDirPoolReader reader(pools);
    EXPECT_TRUE(reader.CheckRanges(rec, 0, AbortingFlatErrorSink()));
    view = reader.View(rec);
  }
};

// Local id of `w` in the view's large table, or -1 when w is not large:
// ResolveLarge on a one-keyword query.
int64_t LargeId(const FlatDirView& view, KeywordId w) {
  uint32_t lid = 0;
  KeywordId small = 0;
  return ResolveLarge(view.large, {&w, 1}, &lid, &small)
             ? static_cast<int64_t>(lid)
             : -1;
}

// The view's materialized list for `w`, or nullopt when it has none.
std::optional<std::vector<ObjectId>> MaterializedList(const FlatDirView& view,
                                                      KeywordId w) {
  const FlatMatEntry* entry = FindMaterialized(view.materialized, w);
  if (entry == nullptr) return std::nullopt;
  const auto list = view.mat_pool.subspan(entry->begin, entry->count);
  return std::vector<ObjectId>(list.begin(), list.end());
}

// DirectoryBuilder::Build, held as a directory.
BuiltDirectory Build(DirectoryBuilder* builder,
                     std::span<const ObjectId> active,
                     std::span<const std::vector<ObjectId>> children,
                     const std::vector<KeywordId>* inherited,
                     std::vector<ObjectId> pivots,
                     std::vector<KeywordId>* next_inherited) {
  return BuiltDirectory(
      builder->Build(active, children, inherited, pivots, next_inherited));
}

Corpus MakeCorpus() {
  // Keyword 0 appears in 6 of 8 docs (large at most thresholds); keyword 9
  // appears once (small).
  return Corpus({Document{0, 1}, Document{0, 2}, Document{0, 3},
                 Document{0, 1, 2}, Document{0, 4}, Document{0, 9},
                 Document{5, 6}, Document{7, 8}});
}

TEST(NodeDirectory, EncodeTupleBitPacking) {
  std::vector<uint32_t> pair = {3, 7};
  EXPECT_EQ(EncodeTuple(pair),
            (uint64_t{3} << 32) | 7);
  std::vector<uint32_t> triple = {1, 2, 3};
  // 21 bits per id for k = 3.
  EXPECT_EQ(EncodeTuple(triple),
            (uint64_t{1} << 42) | (uint64_t{2} << 21) | 3);
}

TEST(NodeDirectory, EncodeTupleInjectiveOnRandomTuples) {
  Rng rng(3);
  FlatHashSet<uint64_t> seen;
  std::set<std::vector<uint32_t>> raw;
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint32_t> t(3);
    for (auto& v : t) v = static_cast<uint32_t>(rng.NextBounded(1 << 21));
    std::sort(t.begin(), t.end());
    const bool new_raw = raw.insert(t).second;
    EXPECT_EQ(seen.Insert(EncodeTuple(t)), new_raw);
  }
}

TEST(DirectoryBuilder, WeightMatchesDocSizes) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> all(corpus.num_objects());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(builder.WeightOf(all), corpus.total_weight());
  std::vector<ObjectId> some = {0, 3};
  EXPECT_EQ(builder.WeightOf(some), 5u);  // |{0,1}| + |{0,1,2}|.
}

TEST(DirectoryBuilder, LargeClassificationFollowsThreshold) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;  // alpha = 1/2; N_u = 17 -> threshold ~ 4.12.
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active(corpus.num_objects());
  std::iota(active.begin(), active.end(), 0);
  std::vector<std::vector<ObjectId>> children(2);
  children[0] = {0, 1, 2, 3};
  children[1] = {4, 5, 6};
  std::vector<KeywordId> next;
  const BuiltDirectory built =
      Build(&builder, active, children, nullptr, {7}, &next);
  const FlatDirView& dir = built.view;
  EXPECT_EQ(dir.weight, corpus.total_weight());
  // Keyword 0 occurs 6 times >= 4.12: large. All others occur <= 2: small.
  EXPECT_EQ(dir.large.size(), 1u);
  EXPECT_GE(LargeId(dir, 0), 0);
  EXPECT_EQ(LargeId(dir, 1), -1);
  EXPECT_EQ(next, (std::vector<KeywordId>{0}));
}

TEST(DirectoryBuilder, MaterializesSmallInheritedKeywordsExcludingPivots) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active(corpus.num_objects());
  std::iota(active.begin(), active.end(), 0);
  std::vector<std::vector<ObjectId>> children(2);
  children[0] = {0, 1, 2, 3};
  children[1] = {4, 5, 6};
  const BuiltDirectory built =
      Build(&builder, active, children, nullptr, {7}, nullptr);
  const FlatDirView& dir = built.view;
  // Keyword 1 (small, inherited-at-root) occurs in objects 0 and 3.
  const auto list1 = MaterializedList(dir, 1);
  ASSERT_TRUE(list1.has_value());
  EXPECT_EQ(*list1, (std::vector<ObjectId>{0, 3}));
  // Keyword 7 occurs only in the pivot object 7, so its list is absent.
  EXPECT_FALSE(MaterializedList(dir, 7).has_value());
  // Keyword 0 is large: never materialized here.
  EXPECT_FALSE(MaterializedList(dir, 0).has_value());
}

TEST(DirectoryBuilder, InheritedFilterRestrictsClassification) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active(corpus.num_objects());
  std::iota(active.begin(), active.end(), 0);
  std::vector<std::vector<ObjectId>> children(1);
  children[0] = active;
  // Only keyword 2 is inherited: keyword 0 must be invisible here.
  std::vector<KeywordId> inherited = {2};
  const BuiltDirectory built =
      Build(&builder, active, children, &inherited, {}, nullptr);
  const FlatDirView& dir = built.view;
  EXPECT_EQ(LargeId(dir, 0), -1);
  const auto list = MaterializedList(dir, 2);
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<ObjectId>{1, 3}));
  EXPECT_FALSE(MaterializedList(dir, 0).has_value());
}

TEST(DirectoryBuilder, TupleRegistryMatchesBruteForce) {
  // Property: a k-tuple of large keywords is registered for child c iff some
  // object in that child's active set carries all k keywords.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    CorpusSpec spec;
    spec.num_objects = 120;
    spec.vocab_size = 15;
    spec.zipf_skew = 0.6;
    spec.min_doc_len = 2;
    spec.max_doc_len = 6;
    Corpus corpus = GenerateCorpus(spec, &rng);
    FrameworkOptions opt;
    opt.k = 2;
    opt.alpha = 0.3;  // Low threshold: many large keywords to exercise.
    DirectoryBuilder builder(&corpus, opt);
    std::vector<ObjectId> active(corpus.num_objects());
    std::iota(active.begin(), active.end(), 0);
    std::vector<std::vector<ObjectId>> children(2);
    for (ObjectId e : active) children[e % 2].push_back(e);
      const BuiltDirectory built =
        Build(&builder, active, children, nullptr, {}, nullptr);
    const FlatDirView& dir = built.view;

    // Collect the large keywords with their lids.
    std::vector<std::pair<KeywordId, uint32_t>> larges;
    for (KeywordId w = 0; w < corpus.vocab_size(); ++w) {
      const int64_t lid = LargeId(dir, w);
      if (lid >= 0) larges.push_back({w, static_cast<uint32_t>(lid)});
    }
    ASSERT_GE(larges.size(), 2u);
    for (size_t a = 0; a < larges.size(); ++a) {
      for (size_t b = a + 1; b < larges.size(); ++b) {
        std::vector<uint32_t> lids = {larges[a].second, larges[b].second};
        std::vector<KeywordId> kws = {larges[a].first, larges[b].first};
        for (size_t c = 0; c < 2; ++c) {
          bool expected = false;
          for (ObjectId e : children[c]) {
            if (corpus.ContainsAll(e, kws)) {
              expected = true;
              break;
            }
          }
          EXPECT_EQ(
              ContainsTupleKey(built.view.child_tuples[c], EncodeTuple(lids)),
              expected)
              << "keywords " << kws[0] << "," << kws[1] << " child " << c;
        }
      }
    }
  }
}

TEST(DirectoryBuilder, ResolveLargeFillsCanonicalLids) {
  Corpus corpus({Document{0, 2, 4}, Document{0, 2, 4}, Document{0, 2, 4},
                 Document{0, 2, 4}});
  FrameworkOptions opt;
  opt.k = 3;
  opt.alpha = 0.1;  // Everything present is large.
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active = {0, 1, 2, 3};
  std::vector<std::vector<ObjectId>> children(1);
  children[0] = active;
  const BuiltDirectory built =
      Build(&builder, active, children, nullptr, {}, nullptr);
  std::vector<KeywordId> sorted_kws = {0, 2, 4};
  uint32_t lids[3];
  KeywordId small = 0;
  ASSERT_TRUE(ResolveLarge(built.view.large, sorted_kws, lids, &small));
  EXPECT_EQ(lids[0], 0u);
  EXPECT_EQ(lids[1], 1u);
  EXPECT_EQ(lids[2], 2u);
  // Lids ascend with keywords, so the resolved array is already canonical.
  EXPECT_TRUE(
      ContainsTupleKey(built.view.child_tuples[0], EncodeTuple({lids, 3})));
}

TEST(DirectoryBuilder, ResolveLargeReportsFirstSmall) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active(corpus.num_objects());
  std::iota(active.begin(), active.end(), 0);
  std::vector<std::vector<ObjectId>> children(1);
  children[0] = active;
  const BuiltDirectory built =
      Build(&builder, active, children, nullptr, {}, nullptr);
  std::vector<KeywordId> kws = {0, 9};  // 0 large, 9 small.
  uint32_t lids[2];
  KeywordId small = 99;
  EXPECT_FALSE(ResolveLarge(built.view.large, kws, lids, &small));
  EXPECT_EQ(small, 9u);
}

TEST(DirectoryBuilder, LeafStoresWholeActiveSetAsPivots) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active = {2, 5, 6};
  const BuiltDirectory built(builder.BuildLeaf(active));
  const FlatDirView& dir = built.view;
  EXPECT_EQ(std::vector<ObjectId>(dir.pivots.begin(), dir.pivots.end()),
            active);
  EXPECT_EQ(dir.weight, 6u);
  EXPECT_EQ(dir.num_children, 0u);
}

TEST(DirectoryBuilder, TuplePruningDisabledBuildsNoRegistry) {
  Corpus corpus = MakeCorpus();
  FrameworkOptions opt;
  opt.k = 2;
  opt.enable_tuple_pruning = false;
  DirectoryBuilder builder(&corpus, opt);
  std::vector<ObjectId> active(corpus.num_objects());
  std::iota(active.begin(), active.end(), 0);
  std::vector<std::vector<ObjectId>> children(2);
  children[0] = {0, 1, 2, 3};
  children[1] = {4, 5, 6, 7};
  const BuiltDirectory built =
      Build(&builder, active, children, nullptr, {}, nullptr);
  const FlatDirView& dir = built.view;
  EXPECT_EQ(dir.num_children, 2u);  // Slots exist but stay empty.
}

}  // namespace
}  // namespace kwsc
