// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared-nothing serving (src/serve/): the router must produce total
// disjoint balanced plans, and the coordinator's scatter-gather must be
// invisible — canonical rows byte-identical to the unsharded engine for
// every shard count, strategy, fan-out mode, and top-t, with the selection
// merge shipping no more bytes than the naive gather.

#include "serve/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ops_budget.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "serve/dynamic_shard_replica.h"
#include "serve/merge.h"
#include "serve/shard_router.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

struct Dataset {
  Corpus corpus;
  std::vector<Point<2>> points;
  std::vector<double> axis_keys;
};

Dataset MakeDataset(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 96;
  Dataset data;
  data.corpus = GenerateCorpus(spec, &rng);
  data.points = GeneratePoints<2>(n, PointDistribution::kClustered, &rng);
  data.axis_keys.reserve(n);
  for (const auto& p : data.points) data.axis_keys.push_back(p[0]);
  return data;
}

/// A corpus where every document holds hot keywords {0, 1}: broad boxes on
/// query {0, 1} produce candidate sets of hundreds of ids per query — the
/// regime where the selection merge beats the naive gather (small candidate
/// sets fall back to naive by design and ship equal bytes plus summaries).
Dataset MakeDenseDataset(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Document> docs;
  docs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{0, 1, 2 + i % 50, 52 + (i / 7) % 40});
  }
  Dataset data;
  data.corpus = Corpus(docs);
  data.points = GeneratePoints<2>(n, PointDistribution::kUniform, &rng);
  data.axis_keys.reserve(n);
  for (const auto& p : data.points) data.axis_keys.push_back(p[0]);
  return data;
}

std::vector<BatchQuery<Box<2>>> MakeDenseBatch(const Dataset& data,
                                               size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQuery<Box<2>>> batch;
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(data.points),
                          rng.UniformDouble(0.5, 0.9), &rng),
         {0, 1}});
  }
  return batch;
}

std::vector<BatchQuery<Box<2>>> MakeBatch(const Dataset& data, size_t count,
                                          double min_sel, double max_sel,
                                          KeywordPick pick, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQuery<Box<2>>> batch;
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(data.points),
                          rng.UniformDouble(min_sel, max_sel), &rng),
         PickQueryKeywords(data.corpus, 2, pick, &rng)});
  }
  return batch;
}

/// The unsharded answer in the coordinator's canonical form: ascending ids,
/// truncated to t when t > 0.
std::vector<std::vector<ObjectId>> CanonicalReference(
    const Dataset& data, std::span<const BatchQuery<Box<2>>> batch,
    uint64_t top_t) {
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(data.points, &data.corpus, opt);
  QueryEngine<OrpKwIndex<2>> engine(&index, 1);
  auto result = engine.Run(batch);
  for (auto& row : result.rows) {
    std::sort(row.begin(), row.end());
    if (top_t > 0 && row.size() > top_t) row.resize(top_t);
  }
  return result.rows;
}

void CheckPlanIsTotalDisjoint(const ShardPlan& plan, const Dataset& data,
                              uint32_t num_shards) {
  ASSERT_EQ(plan.num_shards, num_shards);
  ASSERT_EQ(plan.members.size(), num_shards);
  ASSERT_EQ(plan.shard_of.size(), data.corpus.num_objects());
  std::vector<int> seen(data.corpus.num_objects(), 0);
  uint64_t weight = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint64_t shard_weight = 0;
    for (size_t i = 0; i < plan.members[s].size(); ++i) {
      const ObjectId e = plan.members[s][i];
      EXPECT_EQ(plan.shard_of[e], s);
      if (i > 0) {
        EXPECT_LT(plan.members[s][i - 1], e);  // Ascending.
      }
      ++seen[e];
      shard_weight += data.corpus.doc(e).size();
    }
    EXPECT_EQ(plan.shard_weight[s], shard_weight);
    weight += shard_weight;
  }
  for (int count : seen) EXPECT_EQ(count, 1);  // Total and disjoint.
  EXPECT_EQ(weight, data.corpus.total_weight());
}

TEST(ShardRouter, SpacePlanIsTotalDisjointAndBalanced) {
  const Dataset data = MakeDataset(600, 4401);
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    ShardRouter router(ShardStrategy::kSpacePartitioned, shards);
    const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
    CheckPlanIsTotalDisjoint(plan, data, shards);
    // Balanced-cut quota: each shard's group weighs at most total/S, plus
    // at most one promoted separator document.
    const uint64_t max_doc = 8;  // CorpusSpec default max_doc_len.
    for (uint64_t w : plan.shard_weight) {
      EXPECT_LE(w, data.corpus.total_weight() / shards + max_doc);
    }
    // Deterministic: the same inputs give the same plan.
    const ShardPlan again = router.Plan(data.corpus, data.axis_keys);
    EXPECT_EQ(plan.shard_of, again.shard_of);
  }
}

TEST(ShardRouter, KeywordPlanIsTotalDisjointAndDeterministic) {
  const Dataset data = MakeDataset(600, 4403);
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    ShardRouter router(ShardStrategy::kKeywordPartitioned, shards);
    const ShardPlan plan = router.Plan(data.corpus);
    CheckPlanIsTotalDisjoint(plan, data, shards);
    const ShardPlan again = router.Plan(data.corpus);
    EXPECT_EQ(plan.shard_of, again.shard_of);
  }
}

TEST(ShardRouter, KeywordPlanColocatesDominantKeyword) {
  // Two hot keywords + unique fillers: every object's dominant keyword is
  // its hot keyword, so each hot keyword's objects land on one shard.
  std::vector<Document> docs;
  for (uint32_t i = 0; i < 40; ++i) {
    docs.push_back(Document{i % 2, 2 + i});
  }
  const Corpus corpus(docs);
  ShardRouter router(ShardStrategy::kKeywordPartitioned, 2);
  const ShardPlan plan = router.Plan(corpus);
  for (ObjectId e = 0; e < 40; ++e) {
    EXPECT_EQ(plan.shard_of[e], plan.shard_of[e % 2]);
  }
  EXPECT_NE(plan.shard_of[0], plan.shard_of[1]);
}

TEST(Coordinator, ByteIdenticalToUnshardedEveryShardCountAndStrategy) {
  const Dataset data = MakeDataset(900, 4405);
  const auto batch = MakeBatch(data, 24, 0.05, 0.5,
                               KeywordPick::kCooccurring, 991);
  const auto expected = CanonicalReference(data, batch, /*top_t=*/0);
  FrameworkOptions opt;
  opt.k = 2;
  for (ShardStrategy strategy : {ShardStrategy::kSpacePartitioned,
                                 ShardStrategy::kKeywordPartitioned}) {
    for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
      ShardRouter router(strategy, shards);
      const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
      for (bool parallel : {false, true}) {
        ServeOptions serve;
        serve.parallel_fanout = parallel;
        Coordinator<OrpKwIndex<2>> coordinator(plan, data.points, data.corpus,
                                               opt, serve);
        const auto result = coordinator.Run(batch);
        ASSERT_EQ(result.rows.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ASSERT_EQ(result.rows[i], expected[i])
              << "strategy="
              << (strategy == ShardStrategy::kSpacePartitioned ? "space"
                                                               : "keyword")
              << " shards=" << shards << " parallel=" << parallel
              << " query " << i;
        }
        EXPECT_FALSE(result.stats.budget_exhausted);
        EXPECT_EQ(result.bytes.selection, result.bytes.naive);
      }
    }
  }
}

TEST(Coordinator, TopTSelectionMatchesNaiveAndReference) {
  const Dataset data = MakeDenseDataset(1200, 4407);
  const auto batch = MakeDenseBatch(data, 16, 993);
  FrameworkOptions opt;
  opt.k = 2;
  for (uint64_t top_t : {1u, 5u, 64u}) {
    const auto expected = CanonicalReference(data, batch, top_t);
    for (uint32_t shards : {2u, 4u}) {
      ShardRouter router(ShardStrategy::kSpacePartitioned, shards);
      const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
      ServeOptions selection;
      selection.top_t = top_t;
      selection.selection_merge = true;
      ServeOptions naive = selection;
      naive.selection_merge = false;
      Coordinator<OrpKwIndex<2>> selective(plan, data.points, data.corpus,
                                           opt, selection);
      Coordinator<OrpKwIndex<2>> gather(plan, data.points, data.corpus, opt,
                                        naive);
      const auto selected = selective.Run(batch);
      const auto gathered = gather.Run(batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(selected.rows[i], expected[i])
            << "t=" << top_t << " shards=" << shards << " query " << i;
        ASSERT_EQ(gathered.rows[i], expected[i]);
      }
      // Selection never ships more than naive; with these candidate sets
      // and a small t it ships strictly less.
      EXPECT_LE(selected.bytes.selection,
                selected.bytes.naive + kMergeSampleKeys * kCandidateBytes *
                                           shards * batch.size());
      if (top_t <= 5) {
        EXPECT_LT(selected.bytes.selection, selected.bytes.naive)
            << "t=" << top_t << " shards=" << shards;
      }
      EXPECT_EQ(gathered.bytes.selection, gathered.bytes.naive);
    }
  }
}

TEST(Coordinator, ShardBudgetsSurfaceExhaustion) {
  const Dataset data = MakeDataset(800, 4409);
  const auto batch =
      MakeBatch(data, 8, 0.5, 0.9, KeywordPick::kFrequent, 995);
  FrameworkOptions opt;
  opt.k = 2;
  ShardRouter router(ShardStrategy::kSpacePartitioned, 4);
  const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
  ServeOptions serve;
  serve.per_shard_query_ops = 3;  // Far below any real query's work.
  obs::MetricsRegistry registry;
  Coordinator<OrpKwIndex<2>> coordinator(plan, data.points, data.corpus, opt,
                                         serve, &registry);
  const auto result = coordinator.Run(batch);
  // Every (query, shard) pair whose shard-local query runs out of its
  // budget counts once.
  uint64_t expected = 0;
  for (size_t s = 0; s < coordinator.num_shards(); ++s) {
    for (const auto& q : batch) {
      QueryStats stats;
      OpsBudget budget(serve.per_shard_query_ops);
      coordinator.replica(s).index().Query(q.region, q.keywords, &stats,
                                           &budget);
      expected += stats.budget_exhausted ? 1 : 0;
    }
  }
  EXPECT_GT(expected, coordinator.num_shards());
  EXPECT_EQ(result.budget_exhaustions, expected);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_EQ(registry.CounterValue("serve.budget_exhausted"), expected);
}

TEST(Coordinator, RegistryCountersAndFanout) {
  const Dataset data = MakeDenseDataset(1200, 4411);
  const auto batch = MakeDenseBatch(data, 12, 997);
  FrameworkOptions opt;
  opt.k = 2;
  ShardRouter router(ShardStrategy::kSpacePartitioned, 4);
  const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
  ServeOptions serve;
  serve.top_t = 4;
  obs::MetricsRegistry registry;
  Coordinator<OrpKwIndex<2>> coordinator(plan, data.points, data.corpus, opt,
                                         serve, &registry);
  const auto result = coordinator.Run(batch);
  EXPECT_EQ(registry.CounterValue("serve.batches"), 1u);
  EXPECT_EQ(registry.CounterValue("serve.queries"), batch.size());
  EXPECT_EQ(registry.CounterValue("serve.shard_fanout"), batch.size() * 4);
  EXPECT_EQ(registry.CounterValue("serve.bytes_shipped"),
            result.bytes.selection);
  EXPECT_EQ(registry.CounterValue("serve.bytes_naive"), result.bytes.naive);
  EXPECT_LT(registry.CounterValue("serve.bytes_shipped"),
            registry.CounterValue("serve.bytes_naive"));
  // Per-shard candidate counters: present for every shard, and their sum is
  // the naive candidate volume.
  uint64_t candidates = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    candidates +=
        registry.CounterValue("serve.shard" + std::to_string(s) +
                              ".candidates");
  }
  uint64_t total_results = 0;
  {
    const auto expected = CanonicalReference(data, batch, 0);
    for (const auto& row : expected) total_results += row.size();
  }
  EXPECT_EQ(candidates, total_results);
  // An empty batch still counts as a served batch (mirrors the engine's
  // empty-batch registry contract).
  coordinator.Run(std::span<const BatchQuery<Box<2>>>{});
  EXPECT_EQ(registry.CounterValue("serve.batches"), 2u);
  EXPECT_EQ(registry.CounterValue("serve.queries"), batch.size());
}

TEST(Coordinator, ShardBoundaryEdgeCases) {
  // The scatter analogues of RunShard's block-partition edges: batches
  // smaller than the shard count, equal to it, and a single query; plus a
  // dataset of one object fanned across four shards (three empty replicas).
  const Dataset data = MakeDataset(300, 4413);
  FrameworkOptions opt;
  opt.k = 2;
  ShardRouter router(ShardStrategy::kSpacePartitioned, 4);
  const ShardPlan plan = router.Plan(data.corpus, data.axis_keys);
  ServeOptions serve;
  Coordinator<OrpKwIndex<2>> coordinator(plan, data.points, data.corpus, opt,
                                         serve);
  for (size_t batch_size : {1u, 3u, 4u, 9u}) {
    const auto batch = MakeBatch(data, batch_size, 0.1, 0.6,
                                 KeywordPick::kCooccurring, 1000 + batch_size);
    const auto expected = CanonicalReference(data, batch, 0);
    const auto result = coordinator.Run(batch);
    ASSERT_EQ(result.rows.size(), batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      ASSERT_EQ(result.rows[i], expected[i]) << "batch=" << batch_size;
    }
  }

  Dataset tiny;
  tiny.corpus = Corpus({Document{0, 1}});
  tiny.points = {Point<2>{{0.5, 0.5}}};
  tiny.axis_keys = {0.5};
  ShardRouter tiny_router(ShardStrategy::kSpacePartitioned, 4);
  const ShardPlan tiny_plan = tiny_router.Plan(tiny.corpus, tiny.axis_keys);
  ASSERT_EQ(tiny_plan.members.size(), 4u);
  Coordinator<OrpKwIndex<2>> tiny_coordinator(tiny_plan, tiny.points,
                                              tiny.corpus, opt, serve);
  Box<2> everywhere;
  everywhere.lo = {{0.0, 0.0}};
  everywhere.hi = {{1.0, 1.0}};
  std::vector<BatchQuery<Box<2>>> tiny_batch{{everywhere, {0, 1}}};
  const auto tiny_result = tiny_coordinator.Run(tiny_batch);
  ASSERT_EQ(tiny_result.rows.size(), 1u);
  EXPECT_EQ(tiny_result.rows[0], (std::vector<ObjectId>{0}));
}

// ---------------------------------------------------------------------------
// Dynamic serving path (serve/dynamic_shard_replica.h): the coordinator
// serves mixed update/query traffic, and its scatter-gather must stay
// invisible — rows identical to one unsharded DynamicIndex fed the same
// update stream, for every shard count, with and without background merges.
// ---------------------------------------------------------------------------

using DynCoordinator = DynamicCoordinator<OrpKwIndex<2>>;
using DynUpdate = DynCoordinator::Update;

TEST(DynamicCoordinator, MixedTrafficMatchesUnshardedDynamicIndex) {
  Rng rng(5501);
  FrameworkOptions opt;
  opt.k = 2;
  for (uint32_t shards : {1u, 3u, 4u}) {
    ServeOptions serve;
    DynCoordinator coordinator(shards, opt, serve, /*buffer_capacity=*/8);
    DynamicIndex<OrpKwIndex<2>> reference(opt, /*buffer_capacity=*/8);
    std::vector<ObjectId> live;
    for (int round = 0; round < 12; ++round) {
      // A mixed stream: a burst of inserts with some interleaved deletes.
      std::vector<DynUpdate> stream;
      const size_t inserts = 5 + rng.NextBounded(20);
      for (size_t i = 0; i < inserts; ++i) {
        DynUpdate u;
        u.kind = DynUpdate::Kind::kInsert;
        u.geom = Point<2>{{rng.NextDouble(), rng.NextDouble()}};
        u.doc = Document{static_cast<KeywordId>(rng.NextBounded(6)),
                         static_cast<KeywordId>(6 + rng.NextBounded(6))};
        stream.push_back(u);
        if (!live.empty() && rng.NextBounded(4) == 0) {
          DynUpdate del;
          del.kind = DynUpdate::Kind::kDelete;
          del.global_id = live[rng.NextBounded(live.size())];
          live.erase(std::find(live.begin(), live.end(), del.global_id));
          stream.push_back(del);
        }
      }
      // Feed the reference the same stream (ids match: both assign in
      // arrival order).
      for (const DynUpdate& u : stream) {
        if (u.kind == DynUpdate::Kind::kInsert) {
          live.push_back(reference.Insert(u.geom, u.doc));
        } else {
          ASSERT_TRUE(reference.Delete(u.global_id));
        }
      }
      coordinator.ApplyUpdates(stream);
      ASSERT_EQ(coordinator.live_objects(), reference.live_objects());

      std::vector<BatchQuery<Box<2>>> batch;
      for (int qi = 0; qi < 4; ++qi) {
        Box<2> q;
        for (int dim = 0; dim < 2; ++dim) {
          const double a = rng.NextDouble();
          const double b = rng.NextDouble();
          q.lo[dim] = std::min(a, b);
          q.hi[dim] = std::max(a, b);
        }
        batch.push_back({q,
                         {static_cast<KeywordId>(rng.NextBounded(6)),
                          static_cast<KeywordId>(6 + rng.NextBounded(6))}});
      }
      const auto result = coordinator.Run(batch);
      ASSERT_EQ(result.rows.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(result.rows[i],
                  testing::Sorted(
                      reference.Query(batch[i].region, batch[i].keywords)))
            << "shards=" << shards << " round=" << round << " query " << i;
      }
    }
    for (uint32_t s = 0; s < shards; ++s) {
      testing::ExpectAuditClean(coordinator.replica(s).index());
    }
  }
}

TEST(DynamicCoordinator, BackgroundMergesAndTopTStayExact) {
  ThreadPool merge_pool(2);
  Rng rng(5503);
  FrameworkOptions opt;
  opt.k = 2;
  ServeOptions serve;
  serve.top_t = 5;
  serve.selection_merge = true;
  obs::MetricsRegistry registry;
  DynamicCoordinator<OrpKwIndex<2>> coordinator(
      3, opt, serve, /*buffer_capacity=*/16, &merge_pool, &registry);
  DynamicIndex<OrpKwIndex<2>> reference(opt, /*buffer_capacity=*/16);
  uint64_t expected_candidates = 0;
  for (int step = 0; step < 400; ++step) {
    const Point<2> p{{rng.NextDouble(), rng.NextDouble()}};
    const Document doc{static_cast<KeywordId>(rng.NextBounded(4)),
                       static_cast<KeywordId>(4 + rng.NextBounded(4))};
    const ObjectId id = coordinator.Insert(p, doc);
    ASSERT_EQ(reference.Insert(p, doc), id);
    if (step % 9 == 4) {
      coordinator.Delete(id);
      ASSERT_TRUE(reference.Delete(id));
    }
    if (step % 67 != 0) continue;
    // Queries run mid-merge against each shard's snapshot; answers must
    // still be exact because publishes are synchronous with the update.
    Box<2> everywhere;
    everywhere.lo = {{0.0, 0.0}};
    everywhere.hi = {{1.0, 1.0}};
    std::vector<BatchQuery<Box<2>>> batch{
        {everywhere,
         {static_cast<KeywordId>(rng.NextBounded(4)),
          static_cast<KeywordId>(4 + rng.NextBounded(4))}}};
    const auto result = coordinator.Run(batch);
    std::vector<ObjectId> expected =
        testing::Sorted(reference.Query(everywhere, batch[0].keywords));
    expected_candidates += expected.size();
    if (expected.size() > serve.top_t) expected.resize(serve.top_t);
    ASSERT_EQ(result.rows[0], expected) << "step " << step;
  }
  coordinator.WaitQuiescent();
  for (uint32_t s = 0; s < 3; ++s) {
    testing::ExpectAuditClean(coordinator.replica(s).index());
  }
  EXPECT_GT(registry.CounterValue("serve.updates"), 0u);
  EXPECT_GT(registry.CounterValue("serve.queries"), 0u);
  // The shared scatter-gather counts every shard's candidates, as on the
  // static path: together they are the untruncated answers.
  uint64_t candidates = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    candidates += registry.CounterValue("serve.shard" + std::to_string(s) +
                                        ".candidates");
  }
  EXPECT_EQ(candidates, expected_candidates);
}

TEST(Merge, SelectTopTIsExactOnHandBuiltRows) {
  // Adversarial shapes for the threshold protocol: skewed list sizes, one
  // empty shard, and t across the fallback/threshold boundary.
  const std::vector<ObjectId> a{0, 4, 8, 12, 16, 20, 24, 28, 32, 36,
                                40, 44, 48, 52, 56, 60, 64, 68, 72, 76};
  const std::vector<ObjectId> b{1, 3, 77, 79};
  const std::vector<ObjectId> c{};
  const std::vector<ObjectId> d{2, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99,
                                100, 101, 102, 103, 104, 105, 106, 107, 108};
  const std::vector<const std::vector<ObjectId>*> rows{&a, &b, &c, &d};
  std::vector<ObjectId> all = MergeAllRows(rows);
  ASSERT_TRUE(std::is_sorted(all.begin(), all.end()));
  ASSERT_EQ(all.size(), a.size() + b.size() + d.size());
  for (uint64_t t : {1u, 2u, 7u, 20u, 43u, 44u, 100u}) {
    MergeByteCounters bytes;
    const std::vector<ObjectId> top = SelectTopT(rows, t, &bytes);
    std::vector<ObjectId> expected = all;
    if (expected.size() > t) expected.resize(t);
    EXPECT_EQ(top, expected) << "t=" << t;
    EXPECT_GT(bytes.naive, 0u);
    EXPECT_GE(bytes.selection_rounds, 2u);
  }
}

}  // namespace
}  // namespace kwsc
