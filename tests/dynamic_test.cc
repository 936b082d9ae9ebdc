// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the logarithmic-method dynamization of the ORP-KW index.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/random.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::Sorted;

TEST(DynamicOrpKw, InterleavedInsertAndQueryMatchesBruteForce) {
  Rng rng(611);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/32);

  std::vector<Point<2>> inserted_points;
  std::vector<Document> inserted_docs;
  CorpusSpec spec;
  spec.num_objects = 1;  // Generator used per object below.
  for (int step = 0; step < 2000; ++step) {
    // Insert one random object.
    std::vector<KeywordId> kws;
    const int len = 2 + static_cast<int>(rng.NextBounded(4));
    while (static_cast<int>(kws.size()) < len) {
      KeywordId w = static_cast<KeywordId>(rng.NextBounded(30));
      if (std::find(kws.begin(), kws.end(), w) == kws.end()) kws.push_back(w);
    }
    Point<2> p{{rng.NextDouble(), rng.NextDouble()}};
    Document doc(kws);
    const ObjectId id = dynamic.Insert(p, doc);
    EXPECT_EQ(id, static_cast<ObjectId>(step));
    inserted_points.push_back(p);
    inserted_docs.push_back(std::move(doc));

    if (step % 97 != 0) continue;
    // Query against brute force over everything inserted so far.
    Box<2> q;
    for (int dim = 0; dim < 2; ++dim) {
      double a = rng.NextDouble();
      double b = rng.NextDouble();
      q.lo[dim] = std::min(a, b);
      q.hi[dim] = std::max(a, b);
    }
    std::vector<KeywordId> query_kws = {
        static_cast<KeywordId>(rng.NextBounded(15)),
        static_cast<KeywordId>(15 + rng.NextBounded(15))};
    std::vector<ObjectId> expected;
    for (ObjectId e = 0; e < inserted_points.size(); ++e) {
      if (q.Contains(inserted_points[e]) &&
          inserted_docs[e].ContainsAll(query_kws.data(), query_kws.size())) {
        expected.push_back(e);
      }
    }
    EXPECT_EQ(Sorted(dynamic.Query(q, query_kws)), expected)
        << "step " << step;
  }
}

TEST(DynamicOrpKw, BinaryCounterLevelShape) {
  FrameworkOptions opt;
  opt.k = 2;
  const size_t buffer = 16;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, buffer);
  Rng rng(612);
  for (size_t i = 0; i < 16 * buffer; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}},
                   Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 3)});
  }
  // 16 buffers of carries = binary counter value 16 = one level at slot 4.
  EXPECT_EQ(dynamic.num_objects(), 16 * buffer);
  EXPECT_LE(dynamic.ActiveLevels(), 5u);  // log2(16) + 1.
}

TEST(DynamicOrpKw, QueryBeforeAnyCarryUsesBufferOnly) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/100);
  dynamic.Insert({{0.5, 0.5}}, Document{1, 2});
  dynamic.Insert({{0.9, 0.9}}, Document{1, 3});
  EXPECT_EQ(dynamic.ActiveLevels(), 0u);
  std::vector<KeywordId> kws = {1, 2};
  auto got = dynamic.Query({{{0, 0}}, {{1, 1}}}, kws);
  EXPECT_EQ(got, (std::vector<ObjectId>{0}));
}

TEST(DynamicOrpKw, MemoryBytesCountsBufferedObjectsOnce) {
  // Regression: buffered objects used to be held (and charged) twice — once
  // in the buffer's own copies, once in the global registry. Inserting one
  // object with a large document into an empty buffer must grow the
  // footprint by about the document's bytes, not twice that.
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  Rng rng(641);
  for (int i = 0; i < 8; ++i) {  // Fill to exactly one carry: empty buffer.
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}},
                   Document{static_cast<KeywordId>(i), 100});
  }
  const size_t before = dynamic.MemoryBytes();
  std::vector<KeywordId> big(10000);
  std::iota(big.begin(), big.end(), 0);
  dynamic.Insert({{0.5, 0.5}}, Document(std::move(big)));
  const size_t doc_bytes = 10000 * sizeof(KeywordId);
  const size_t delta = dynamic.MemoryBytes() - before;
  EXPECT_GE(delta, doc_bytes);
  EXPECT_LT(delta, doc_bytes + doc_bytes / 2);  // Double-counting => ~2x.
}

TEST(DynamicOrpKw, ExhaustedBudgetStopsLevelFanOut) {
  // Budgeted termination is global across the decomposition: with >= 2
  // active levels and a budget only one node-visit deep, the first level
  // exhausts it and the fan-out must stop there instead of restarting the
  // budget-free walk on every remaining level.
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  Rng rng(643);
  for (int i = 0; i < 20; ++i) {  // 5 carries = binary 101: two levels.
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}},
                   Document{static_cast<KeywordId>(i % 5),
                            static_cast<KeywordId>(5 + i % 3)});
  }
  ASSERT_GE(dynamic.ActiveLevels(), 2u);
  Box<2> everywhere{{{0.0, 0.0}}, {{1.0, 1.0}}};
  std::vector<KeywordId> kws = {0, 5};

  QueryStats unbounded_stats;
  dynamic.Query(everywhere, kws, &unbounded_stats);
  ASSERT_GE(unbounded_stats.nodes_visited, 2u);  // One root per level.

  QueryStats stats;
  OpsBudget budget(1);
  dynamic.Query(everywhere, kws, &stats, &budget);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(stats.nodes_visited, 1u);  // Second level's root never visited.
}

TEST(DynamicOrpKwDeath, EmptyDocumentRejected) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt);
  EXPECT_DEATH(dynamic.Insert({{0, 0}}, Document{}), "non-empty");
}

}  // namespace
}  // namespace kwsc
