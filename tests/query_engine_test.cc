// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Batched query engine: sharding a batch across threads must be invisible —
// per-query result vectors (including emission order) equal to per-query
// Query calls, and aggregate QueryStats equal to the sequentially
// accumulated totals, for every thread count.

#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

#include "common/ops_budget.h"
#include "common/random.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

TEST(QueryEngine, BatchMatchesPerQueryAnswersAndStats) {
  Rng rng(8201);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 120;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          rng.UniformDouble(0.01, 0.4), &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng)});
  }

  // Reference: per-query calls threading one QueryStats through all of them.
  std::vector<std::vector<ObjectId>> expected;
  QueryStats expected_stats;
  for (const auto& q : batch) {
    expected.push_back(index.Query(q.region, q.keywords, &expected_stats));
  }

  for (int threads : {1, 2, 4, 8}) {
    QueryEngine<OrpKwIndex<2>> engine(&index, threads);
    const auto result = engine.Run(batch);
    ASSERT_EQ(result.rows.size(), batch.size()) << "threads=" << threads;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(result.rows[i], expected[i])
          << "threads=" << threads << " query " << i;
    }
    EXPECT_EQ(result.stats.results, expected_stats.results);
    EXPECT_EQ(result.stats.nodes_visited, expected_stats.nodes_visited);
    EXPECT_EQ(result.stats.pivot_checks, expected_stats.pivot_checks);
    EXPECT_EQ(result.stats.list_scanned, expected_stats.list_scanned);
    EXPECT_EQ(result.stats.tuple_pruned, expected_stats.tuple_pruned);
    EXPECT_EQ(result.stats.geom_pruned, expected_stats.geom_pruned);
    EXPECT_FALSE(result.stats.budget_exhausted);
    EXPECT_GE(result.wall_micros, 0.0);
  }
}

std::string StatsKey(const QueryStats& s) {
  std::ostringstream out;
  out << s.nodes_visited << "," << s.covered_nodes << "," << s.crossing_nodes
      << "," << s.pivot_checks << "," << s.list_scanned << "," << s.results
      << "," << s.tuple_pruned << "," << s.geom_pruned << ","
      << s.covered_work << "," << s.crossing_work << "," << s.type1_nodes
      << "," << s.type2_nodes << "," << s.budget_exhausted << ",[";
  for (uint32_t v : s.type2_per_level) out << v << ";";
  out << "]";
  return out.str();
}

// The determinism contract of the observability layer: on the same batch,
// the merged work histogram (per-query objects examined) and the merged
// QueryStats are byte-identical for every thread count, and the latency
// histogram always carries exactly one sample per query.
TEST(QueryEngine, MergedHistogramsAndStatsIdenticalAcrossThreadCounts) {
  Rng rng(8205);
  CorpusSpec spec;
  spec.num_objects = 1500;
  spec.vocab_size = 100;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(1500, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          rng.UniformDouble(0.01, 0.3), &rng),
         PickQueryKeywords(corpus, 2,
                           i % 2 == 0 ? KeywordPick::kFrequent
                                      : KeywordPick::kCooccurring,
                           &rng)});
  }

  std::string reference_work;
  std::string reference_stats;
  for (int threads : {1, 2, 8}) {
    QueryEngine<OrpKwIndex<2>> engine(&index, threads);
    const auto result = engine.Run(batch);
    const std::string work = result.work.DebugString();
    const std::string stats = StatsKey(result.stats);
    if (threads == 1) {
      reference_work = work;
      reference_stats = stats;
      EXPECT_GT(result.work.count(), 0u);
    } else {
      EXPECT_EQ(work, reference_work) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    }
    // Latency is wall-clock (not value-deterministic), but its shape is:
    // one sample per query, every shard reporting, totals reconciling.
    EXPECT_EQ(result.latency.count(), batch.size()) << "threads=" << threads;
    const size_t expected_shards =
        std::min(static_cast<size_t>(engine.num_threads()), batch.size());
    ASSERT_EQ(result.shard_wall_micros.size(), expected_shards)
        << "threads=" << threads;
    for (double shard_us : result.shard_wall_micros) {
      EXPECT_GE(shard_us, 0.0);
    }
    EXPECT_GE(result.wall_micros, 0.0);
    EXPECT_EQ(result.budget_exhaustions, 0u);
    EXPECT_FALSE(result.trace.enabled);  // Tracing is off by default.
    EXPECT_TRUE(result.trace.queries.empty());
  }
}

// Tracing changes how stats are accumulated (per-query snapshots folded in
// order) but must not change any observable outcome, and the trace itself
// must decompose the batch exactly.
TEST(QueryEngine, TracingIsInvisibleToResultsAndStats) {
  Rng rng(8206);
  CorpusSpec spec;
  spec.num_objects = 800;
  spec.vocab_size = 80;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(800, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.2, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }

  QueryEngine<OrpKwIndex<2>> plain(&index, 2);
  const auto expected = plain.Run(batch);

  FrameworkOptions traced_opt = opt;
  traced_opt.num_threads = 2;
  traced_opt.enable_tracing = true;
  QueryEngine<OrpKwIndex<2>> traced(&index, traced_opt);
  ASSERT_TRUE(traced.tracing_enabled());
  const auto result = traced.Run(batch);

  ASSERT_EQ(result.rows.size(), expected.rows.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.rows[i], expected.rows[i]) << "query " << i;
  }
  EXPECT_EQ(StatsKey(result.stats), StatsKey(expected.stats));
  EXPECT_EQ(result.work.DebugString(), expected.work.DebugString());

  // The trace has one span per query, in batch order (contiguous shards
  // merged in shard order), whose stats snapshots sum to the aggregate.
  ASSERT_TRUE(result.trace.enabled);
  ASSERT_EQ(result.trace.queries.size(), batch.size());
  QueryStats summed;
  for (size_t i = 0; i < result.trace.queries.size(); ++i) {
    const auto& span = result.trace.queries[i];
    EXPECT_EQ(span.query_index, i);
    EXPECT_GE(span.duration_micros, 0.0);
    MergeQueryStats(span.stats, &summed);
  }
  EXPECT_EQ(StatsKey(summed), StatsKey(result.stats));
  ASSERT_EQ(result.trace.phases.size(), 3u);
  EXPECT_EQ(result.trace.phases[0].name, "setup");
  EXPECT_EQ(result.trace.phases[1].name, "execute");
  EXPECT_EQ(result.trace.phases[2].name, "merge");
}

// The registry accumulates engine.* metrics across batches.
// Hands every query a fresh budget of three operations, far below the work
// of any query below.
struct TinyBudgetView {
  using BoxType = Box<2>;
  const OrpKwIndex<2>* index;

  std::vector<ObjectId> Query(const Box<2>& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats) const {
    OpsBudget budget(3);
    return index->Query(q, keywords, stats, &budget);
  }
};

// Every query that exhausts its budget counts once, traced or not: the
// count is per query, not per flip of a shard's sticky flag.
TEST(QueryEngine, CountsEveryExhaustedQueryWithAndWithoutTracing) {
  Rng rng(8209);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const OrpKwIndex<2> index(pts, &corpus, opt);
  const TinyBudgetView view{&index};
  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({Box<2>{{{0.0, 0.0}}, {{1.0, 1.0}}},
                     PickQueryKeywords(corpus, 2, KeywordPick::kFrequent,
                                       &rng)});
  }
  uint64_t expected = 0;
  for (const auto& q : batch) {
    QueryStats stats;
    view.Query(q.region, q.keywords, &stats);
    expected += stats.budget_exhausted ? 1 : 0;
  }
  ASSERT_EQ(expected, batch.size());
  for (const bool tracing : {false, true}) {
    for (const int threads : {1, 4}) {
      FrameworkOptions engine_options;
      engine_options.num_threads = threads;
      engine_options.enable_tracing = tracing;
      QueryEngine<TinyBudgetView> engine(&view, engine_options);
      const auto result = engine.Run(batch);
      EXPECT_EQ(result.budget_exhaustions, expected)
          << "tracing=" << tracing << " threads=" << threads;
      EXPECT_TRUE(result.stats.budget_exhausted);
    }
  }
}

TEST(QueryEngine, RegistryAccumulatesAcrossRuns) {
  Rng rng(8207);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(300, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.25, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }

  obs::MetricsRegistry registry;
  QueryEngine<OrpKwIndex<2>> engine(&index, opt, &registry);
  engine.Run(batch);
  engine.Run(batch);
  EXPECT_EQ(registry.CounterValue("engine.batches"), 2u);
  EXPECT_EQ(registry.CounterValue("engine.queries"), 20u);
  EXPECT_EQ(registry.CounterValue("engine.ops_budget_exhausted"), 0u);
  EXPECT_EQ(registry.histograms().at("engine.query_latency_ns").count(), 20u);
  EXPECT_EQ(registry.histograms().at("engine.query_work_objects").count(),
            20u);
}

TEST(QueryEngine, EmptyBatchStillCountsInRegistry) {
  // Regression: the empty-batch early return used to skip the registry
  // update entirely, so engine.batches undercounted relative to Run calls.
  Rng rng(8212);
  CorpusSpec spec;
  spec.num_objects = 64;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(64, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  obs::MetricsRegistry registry;
  QueryEngine<OrpKwIndex<2>> engine(&index, opt, &registry);
  engine.Run({});
  EXPECT_EQ(registry.CounterValue("engine.batches"), 1u);
  EXPECT_EQ(registry.CounterValue("engine.queries"), 0u);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.25, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  engine.Run(batch);
  engine.Run({});
  EXPECT_EQ(registry.CounterValue("engine.batches"), 3u);
  EXPECT_EQ(registry.CounterValue("engine.queries"), 2u);
}

TEST(QueryEngine, ShardBoundaryMathEdgeCases) {
  // RunShard's contiguous block partition [s*n/shards, (s+1)*n/shards):
  // exercise n < threads, n == threads, and n == 1 and pin the exact
  // per-query answers (every boundary bug shows up as a skipped or
  // double-run query).
  Rng rng(8213);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(400, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.3, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng)});
  }
  struct Case {
    size_t batch_size;
    int threads;
  };
  for (const Case c : {Case{3, 8}, Case{4, 4}, Case{1, 4}, Case{1, 1},
                       Case{7, 4}}) {
    const std::span<const BatchQuery<Box<2>>> batch(pool.data(),
                                                    c.batch_size);
    QueryEngine<OrpKwIndex<2>> engine(&index, c.threads);
    const auto result = engine.Run(batch);
    ASSERT_EQ(result.rows.size(), c.batch_size)
        << "n=" << c.batch_size << " threads=" << c.threads;
    ASSERT_EQ(result.latency.count(), c.batch_size);
    // One shard per thread, capped at the batch size.
    ASSERT_EQ(result.shard_wall_micros.size(),
              std::min<size_t>(c.batch_size, c.threads));
    for (size_t i = 0; i < c.batch_size; ++i) {
      EXPECT_EQ(result.rows[i],
                index.Query(batch[i].region, batch[i].keywords))
          << "n=" << c.batch_size << " threads=" << c.threads << " query "
          << i;
    }
  }
}

TEST(QueryEngine, EmptyBatch) {
  Rng rng(8202);
  CorpusSpec spec;
  spec.num_objects = 64;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(64, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  QueryEngine<OrpKwIndex<2>> engine(&index, 4);
  const auto result = engine.Run({});
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.stats.nodes_visited, 0u);
  EXPECT_EQ(result.stats.results, 0u);
}

TEST(QueryEngine, BatchSmallerThanThreadCount) {
  Rng rng(8203);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.3, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  QueryEngine<OrpKwIndex<2>> engine(&index, 8);  // More threads than queries.
  const auto result = engine.Run(batch);
  ASSERT_EQ(result.rows.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.rows[i], index.Query(batch[i].region, batch[i].keywords));
  }
}

TEST(QueryEngine, WorksWithRrKwRectangles) {
  Rng rng(8204);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  std::vector<Box<1>> rects;
  for (uint32_t i = 0; i < 400; ++i) {
    const double lo = rng.UniformDouble(0.0, 0.9);
    Box<1> r;
    r.lo[0] = lo;
    r.hi[0] = lo + rng.UniformDouble(0.0, 0.1);
    rects.push_back(r);
  }
  FrameworkOptions opt;
  opt.k = 2;
  RrKwIndex<1> index(rects, &corpus, opt);

  std::vector<BatchQuery<Box<1>>> batch;
  for (int i = 0; i < 16; ++i) {
    const double lo = rng.UniformDouble(0.0, 0.8);
    Box<1> q;
    q.lo[0] = lo;
    q.hi[0] = lo + rng.UniformDouble(0.05, 0.2);
    batch.push_back(
        {q, PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  QueryEngine<RrKwIndex<1>> engine(&index, 4);
  const auto result = engine.Run(batch);
  ASSERT_EQ(result.rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.rows[i], index.Query(batch[i].region, batch[i].keywords))
        << "query " << i;
  }
}

}  // namespace
}  // namespace kwsc
