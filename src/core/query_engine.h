// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Batched query execution (the throughput layer).
//
// Every index in this library is immutable after construction — the contract
// tests/concurrency_test.cc exercises — so concurrent Query calls need no
// synchronization at all. This engine exploits that: a batch of (region,
// keywords) queries is cut into contiguous shards, one per thread, and each
// shard runs on its own thread with its own QueryStats. Results land in
// pre-sized slots of the output vector (no two shards touch the same slot),
// and per-shard stats are merged in shard order afterwards, so the outcome —
// result vectors, their order, and the aggregate counters — is identical to
// issuing the queries one by one on a single thread.
//
// Observability (src/obs/): each shard also records per-query wall latency
// and per-query work (objects examined) into shard-local log-bucket
// histograms, merged in shard order under the same determinism contract as
// MergeQueryStats — the work histogram is bit-identical for every thread
// count on the same batch, and the latency histogram always holds exactly
// one sample per query. Every query runs on a fresh QueryStats folded into
// its shard's stats in order, so per-query facts (work, budget exhaustion)
// are exact; with FrameworkOptions::enable_tracing the engine additionally
// keeps each query's snapshot in a QueryTrace (off by default).
//
// Concurrency contract (DESIGN.md §5g): all cross-thread state inside Run is
// disjoint-by-construction — shard s writes only rows [begin_s, end_s),
// shard_stats[s], and shard_obs[s] — so the shard lambdas hold no locks;
// kwsc-lint's thread-capture rule checks that by-reference captures
// submitted to the TaskGroup stay in that shape. The one shared mutable
// structure, the optional MetricsRegistry, is internally locked.

#ifndef KWSC_CORE_QUERY_ENGINE_H_
#define KWSC_CORE_QUERY_ENGINE_H_

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/framework.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/document.h"

namespace kwsc {

/// One batch entry: a query region (Box for the kd-tree and
/// dimension-reduction indexes, a data rectangle for RR-KW, ConvexQuery for
/// the partition substrates) plus its k query keywords.
template <typename Region>
struct BatchQuery {
  Region region;
  std::vector<KeywordId> keywords;
};

/// Shards query batches across a thread pool.
///
/// `Index` needs only the uniform Query(region, keywords, stats) entry point
/// every index here exposes. `Region` defaults to Index::BoxType; pass it
/// explicitly for indexes whose region type has another name (e.g.
/// ConvexQuery for SpKwHsIndex).
template <typename Index, typename Region = typename Index::BoxType>
class QueryEngine {
 public:
  struct BatchResult {
    /// One result vector per query, in input order, each exactly what
    /// Index::Query would have returned.
    std::vector<std::vector<ObjectId>> rows;
    /// Aggregate over the whole batch.
    QueryStats stats;
    /// Wall time of shard execution only — it excludes result-slot
    /// allocation, shard setup, and the stats/histogram merge, so the
    /// per-query latency histogram decomposes it: max(shard_wall_micros)
    /// <= wall_micros and every shard's wall time upper-bounds the sum of
    /// its queries' latencies.
    double wall_micros = 0.0;
    /// Per-shard execution wall time, indexed by shard.
    std::vector<double> shard_wall_micros;
    /// Per-query wall latency, one sample per query, in nanoseconds.
    obs::Histogram latency;
    /// Per-query work (QueryStats::ObjectsExamined deltas) — deterministic:
    /// bit-identical across thread counts for the same batch.
    obs::Histogram work;
    /// Queries that tripped their OpsBudget (footnote 4's budgeted
    /// termination), one count per query. Engine-level batches rarely carry
    /// budgets, so this is normally 0.
    uint64_t budget_exhaustions = 0;
    /// Populated only when the engine was built with tracing enabled.
    obs::QueryTrace trace;
  };

  /// `index` must outlive the engine. `num_threads` follows
  /// FrameworkOptions::num_threads semantics: 0 = one per hardware thread,
  /// 1 = run the batch on the calling thread.
  QueryEngine(const Index* index, int num_threads)
      : QueryEngine(index, num_threads, /*enable_tracing=*/false,
                    /*registry=*/nullptr) {}

  /// Execution knobs from FrameworkOptions (num_threads, enable_tracing).
  /// `registry`, when non-null, accumulates engine.* counters and latency /
  /// work histograms across every Run; it must outlive the engine.
  /// MetricsRegistry is internally locked (see obs/metrics.h), so one
  /// registry may be shared by engines running on different threads — the
  /// per-batch fold is commutative, and tests/concurrency_stress_test.cc
  /// hammers exactly this sharing under TSan.
  QueryEngine(const Index* index, const FrameworkOptions& options,
              obs::MetricsRegistry* registry = nullptr)
      : QueryEngine(index, options.num_threads, options.enable_tracing,
                    registry) {}

  int num_threads() const { return num_threads_; }
  bool tracing_enabled() const { return trace_enabled_; }

  BatchResult Run(std::span<const BatchQuery<Region>> queries) const {
    BatchResult out;
    out.trace.enabled = trace_enabled_;
    out.rows.resize(queries.size());
    if (queries.empty()) {
      // An empty batch is still a batch: engine.batches must count every Run
      // call or the batches/queries ratio in the registry skews.
      if (registry_ != nullptr) {
        registry_->AddCounter("engine.batches", 1);
        registry_->AddCounter("engine.queries", 0);
      }
      return out;
    }
    WallTimer run_timer;
    const size_t shards =
        std::min(static_cast<size_t>(num_threads_), queries.size());
    std::vector<QueryStats> shard_stats(shards);
    std::vector<ShardObs> shard_obs(shards);
    const double exec_start_us = run_timer.ElapsedMicros();
    {
      TaskGroup group(pool_.get());
      for (size_t s = 1; s < shards; ++s) {
        group.Run([this, queries, &out, &shard_stats, &shard_obs, &run_timer,
                   s, shards] {
          RunShard(queries, s, shards, &out.rows, &shard_stats[s],
                   &shard_obs[s], run_timer);
        });
      }
      // Shard 0 runs on the calling thread; the group destructor joins the
      // rest (helping with stragglers still queued).
      RunShard(queries, 0, shards, &out.rows, &shard_stats[0], &shard_obs[0],
               run_timer);
    }
    const double exec_end_us = run_timer.ElapsedMicros();
    out.wall_micros = exec_end_us - exec_start_us;
    // Merge in shard order — the determinism contract: totals, histograms,
    // and span order equal the sequential single-thread accumulation.
    out.shard_wall_micros.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      MergeQueryStats(shard_stats[s], &out.stats);
      out.latency.Merge(shard_obs[s].latency);
      out.work.Merge(shard_obs[s].work);
      out.budget_exhaustions += shard_obs[s].budget_exhaustions;
      out.shard_wall_micros.push_back(shard_obs[s].wall_micros);
      if (trace_enabled_) {
        for (auto& span : shard_obs[s].spans) {
          out.trace.queries.push_back(std::move(span));
        }
      }
    }
    if (trace_enabled_) {
      out.trace.phases.push_back({"setup", 0.0, exec_start_us});
      out.trace.phases.push_back({"execute", exec_start_us, out.wall_micros});
      out.trace.phases.push_back(
          {"merge", exec_end_us, run_timer.ElapsedMicros() - exec_end_us});
    }
    if (registry_ != nullptr) {
      registry_->AddCounter("engine.batches", 1);
      registry_->AddCounter("engine.queries", queries.size());
      registry_->AddCounter("engine.ops_budget_exhausted",
                            out.budget_exhaustions);
      registry_->MergeHistogram("engine.query_latency_ns", out.latency);
      registry_->MergeHistogram("engine.query_work_objects", out.work);
    }
    return out;
  }

 private:
  /// Shard-local observability, merged into BatchResult in shard order.
  struct ShardObs {
    obs::Histogram latency;
    obs::Histogram work;
    uint64_t budget_exhaustions = 0;
    double wall_micros = 0.0;
    std::vector<obs::QuerySpan> spans;
  };

  QueryEngine(const Index* index, int num_threads, bool enable_tracing,
              obs::MetricsRegistry* registry)
      : index_(index),
        num_threads_(ResolveNumThreads(num_threads)),
        trace_enabled_(enable_tracing),
        registry_(registry) {
    KWSC_CHECK(index != nullptr);
    if (num_threads_ > 1) {
      pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
    }
  }

  void RunShard(std::span<const BatchQuery<Region>> queries, size_t shard,
                size_t shards, std::vector<std::vector<ObjectId>>* rows,
                QueryStats* stats, ShardObs* sobs,
                const WallTimer& run_timer) const {
    // Contiguous blocks: shard s owns [s*n/shards, (s+1)*n/shards).
    const size_t n = queries.size();
    const size_t begin = shard * n / shards;
    const size_t end = (shard + 1) * n / shards;
    if (trace_enabled_) sobs->spans.reserve(end - begin);
    WallTimer shard_timer;
    for (size_t i = begin; i < end; ++i) {
      // Fresh per-query stats, folded into the shard stats in order:
      // identical totals to threading one QueryStats through the loop.
      const double start_us = trace_enabled_ ? run_timer.ElapsedMicros() : 0.0;
      WallTimer query_timer;
      QueryStats query_stats;
      (*rows)[i] =
          index_->Query(queries[i].region, queries[i].keywords, &query_stats);
      const int64_t nanos = query_timer.ElapsedNanos();
      RecordQuery(nanos, query_stats.ObjectsExamined(), sobs);
      if (query_stats.budget_exhausted) ++sobs->budget_exhaustions;
      if (trace_enabled_) {
        obs::QuerySpan span;
        span.query_index = static_cast<uint32_t>(i);
        span.shard = static_cast<uint32_t>(shard);
        span.start_micros = start_us;
        span.duration_micros = static_cast<double>(nanos) / 1e3;
        span.stats = query_stats;
        sobs->spans.push_back(std::move(span));
      }
      MergeQueryStats(query_stats, stats);
    }
    sobs->wall_micros = shard_timer.ElapsedMicros();
  }

  static void RecordQuery(int64_t nanos, uint64_t work, ShardObs* sobs) {
    sobs->latency.Record(nanos <= 0 ? 0 : static_cast<uint64_t>(nanos));
    sobs->work.Record(work);
  }

  const Index* index_;
  int num_threads_;
  bool trace_enabled_;
  obs::MetricsRegistry* registry_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_QUERY_ENGINE_H_
