// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The scatter-gather coordinator (DESIGN.md §6).
//
// One Coordinator fronts S ShardReplicas built from one ShardPlan. Run()
// fans a batch out to every replica (each holds a disjoint slice of the
// verbose set, so every shard sees every query), gathers the per-shard
// sorted candidate rows, and merges them with serve/merge.h — naive full
// gather for reporting queries, the threshold-selection protocol for top-t.
//
// Process simulation: replicas share no mutable state with the coordinator
// or each other (see serve/shard_replica.h), and the only data crossing the
// replica boundary is what the merge protocols price in bytes. The fan-out
// runs replicas on a private pool when parallel_fanout is set, or strictly
// sequentially otherwise — the results are identical either way, because
// each answer lands in its own slot and the gather folds them in shard
// order. Sequential mode is what the scaling bench uses to measure clean
// per-shard walls on machines with fewer cores than shards.
//
// Determinism contract (DESIGN.md §6d): coordinator rows are in canonical
// ascending-id order and — with unlimited shard budgets — byte-identical to
// the unsharded engine's rows for the same batch after the same
// canonicalization (sort; truncate to t). Per-shard ops budgets trade that
// exactness for bounded per-shard work, the same trade footnote 4 prices
// for a single index.
//
// Observability: the optional registry accumulates serve.* counters —
// batches/queries, per-shard fan-out, bytes shipped (actual vs. naive),
// selection protocol rounds, budget exhaustions, and per-shard candidate
// counts (the skew signal the keyword strategy is benchmarked on).

#ifndef KWSC_SERVE_COORDINATOR_H_
#define KWSC_SERVE_COORDINATOR_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/framework.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "serve/merge.h"
#include "serve/shard_replica.h"
#include "serve/shard_router.h"
#include "text/corpus.h"

namespace kwsc {

/// Serving-side knobs. Partitioning (strategy, shard count) lives in the
/// ShardPlan; these control how the coordinator drives the replicas.
struct ServeOptions {
  /// Engine threads inside each replica (shards scale out, threads up).
  int threads_per_shard = 1;
  /// Per-query, per-shard ops budget; 0 = unlimited (exact results).
  uint64_t per_shard_query_ops = 0;
  /// 0 = full reporting; t >= 1 = return only the t smallest ids.
  uint64_t top_t = 0;
  /// For top-t: threshold-selection merge vs. naive gather + truncate.
  bool selection_merge = true;
  /// Fan shards out on a pool (one task per replica) vs. run sequentially.
  bool parallel_fanout = true;
};

/// What one coordinated batch returns, for static and dynamic replicas
/// alike.
struct ServeResult {
  /// One row per query, ascending global ids, truncated to top_t when
  /// set — the canonical form of the unsharded answer.
  std::vector<std::vector<ObjectId>> rows;
  /// Aggregate stats folded over shards in shard order.
  QueryStats stats;
  uint64_t budget_exhaustions = 0;
  /// Wire-cost model for this batch's merge (see serve/merge.h).
  MergeByteCounters bytes;
  double wall_micros = 0.0;
  /// Shard-local execution walls — max() models the scatter phase of a
  /// real S-process deployment, independent of how many cores this host
  /// happens to timeslice the simulation onto.
  std::vector<double> shard_wall_micros;
  double merge_micros = 0.0;
};

/// One scatter-gather round over `replicas` (any replica type whose
/// RunBatch(batch) returns a ShardBatchAnswer): scatter the whole batch to
/// every shard — on `pool` when non-null, shard 0 on the calling thread —
/// gather the answers in shard order (the determinism contract), merge each
/// query's S disjoint sorted rows with the protocol `options` selects, and
/// accumulate the serve.* counters in `registry` when non-null.
template <typename Replica, typename Region>
ServeResult ScatterGather(
    const std::vector<std::unique_ptr<Replica>>& replicas, ThreadPool* pool,
    const ServeOptions& options, obs::MetricsRegistry* registry,
    std::span<const BatchQuery<Region>> batch) {
  ServeResult out;
  out.rows.resize(batch.size());
  WallTimer timer;
  const size_t num_shards = replicas.size();
  // Scatter: every shard runs the whole batch over its slice. Answers land
  // in disjoint slots.
  std::vector<ShardBatchAnswer> answers(num_shards);
  if (pool != nullptr) {
    TaskGroup group(pool);
    for (size_t s = 1; s < num_shards; ++s) {
      group.Run([&replicas, batch, &answers, s] {
        answers[s] = replicas[s]->RunBatch(batch);
      });
    }
    answers[0] = replicas[0]->RunBatch(batch);
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      answers[s] = replicas[s]->RunBatch(batch);
    }
  }
  const double scatter_end_us = timer.ElapsedMicros();
  // Gather: fold shard answers in shard order (the determinism contract).
  std::vector<uint64_t> shard_candidates(num_shards, 0);
  out.shard_wall_micros.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    MergeQueryStats(answers[s].stats, &out.stats);
    out.budget_exhaustions += answers[s].budget_exhaustions;
    out.shard_wall_micros.push_back(answers[s].wall_micros);
    for (const auto& row : answers[s].rows) shard_candidates[s] += row.size();
  }
  // Merge, one query at a time over its S disjoint sorted rows.
  std::vector<const std::vector<ObjectId>*> shard_rows(num_shards);
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t s = 0; s < num_shards; ++s) {
      shard_rows[s] = &answers[s].rows[i];
    }
    if (options.top_t == 0) {
      // Full reporting: the answer is the whole candidate set, so there is
      // nothing for selection to save — both protocols ship it all.
      const uint64_t naive = NaiveShipBytes(shard_rows);
      out.bytes.naive += naive;
      out.bytes.selection += naive;
      out.rows[i] = MergeAllRows(shard_rows);
    } else if (options.selection_merge) {
      out.rows[i] = SelectTopT(shard_rows, options.top_t, &out.bytes);
    } else {
      const uint64_t naive = NaiveShipBytes(shard_rows);
      out.bytes.naive += naive;
      out.bytes.selection += naive;
      std::vector<ObjectId> merged = MergeAllRows(shard_rows);
      if (merged.size() > options.top_t) merged.resize(options.top_t);
      out.rows[i] = std::move(merged);
    }
  }
  out.merge_micros = timer.ElapsedMicros() - scatter_end_us;
  out.wall_micros = timer.ElapsedMicros();
  if (registry != nullptr) {
    registry->AddCounter("serve.batches", 1);
    registry->AddCounter("serve.queries", batch.size());
    registry->AddCounter("serve.shard_fanout", batch.size() * num_shards);
    registry->AddCounter("serve.bytes_shipped", out.bytes.selection);
    registry->AddCounter("serve.bytes_naive", out.bytes.naive);
    registry->AddCounter("serve.merge_rounds", out.bytes.selection_rounds);
    registry->AddCounter("serve.budget_exhausted", out.budget_exhaustions);
    for (size_t s = 0; s < num_shards; ++s) {
      registry->AddCounter("serve.shard" + std::to_string(s) + ".candidates",
                           shard_candidates[s]);
    }
  }
  return out;
}

template <typename Index, typename Region = typename Index::BoxType>
class Coordinator {
 public:
  using PointType = typename Index::PointType;
  using Replica = ShardReplica<Index, Region>;
  using Result = ServeResult;

  /// Builds one replica per plan shard over private slices of
  /// (points, corpus). The inputs are only read during construction.
  Coordinator(const ShardPlan& plan, std::span<const PointType> points,
              const Corpus& corpus, const FrameworkOptions& index_options,
              const ServeOptions& options,
              obs::MetricsRegistry* registry = nullptr)
      : options_(options), registry_(registry) {
    KWSC_CHECK(plan.members.size() == plan.num_shards);
    KWSC_CHECK(points.size() == corpus.num_objects());
    replicas_.reserve(plan.num_shards);
    for (const std::vector<ObjectId>& members : plan.members) {
      replicas_.push_back(std::make_unique<Replica>(
          std::span<const ObjectId>(members), points, corpus, index_options,
          options.threads_per_shard, options.per_shard_query_ops));
    }
    if (options_.parallel_fanout && replicas_.size() > 1) {
      pool_ = std::make_unique<ThreadPool>(
          static_cast<int>(replicas_.size()) - 1);
    }
    if (registry_ != nullptr) {
      registry_->SetGauge("serve.num_shards",
                          static_cast<double>(replicas_.size()));
    }
  }

  size_t num_shards() const { return replicas_.size(); }
  const Replica& replica(size_t s) const { return *replicas_[s]; }

  Result Run(std::span<const BatchQuery<Region>> batch) {
    return ScatterGather(replicas_, pool_.get(), options_, registry_, batch);
  }

 private:
  ServeOptions options_;
  obs::MetricsRegistry* registry_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kwsc

#endif  // KWSC_SERVE_COORDINATOR_H_
