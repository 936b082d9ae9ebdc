// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// One shared-nothing shard replica (DESIGN.md §6b).
//
// A replica is the process-simulated unit of the serving architecture: it
// owns a private copy of its slice of the dataset (points + Corpus), a
// private index built over that slice, a private QueryEngine, and a private
// MetricsRegistry — nothing is shared with the coordinator or with sibling
// replicas, so a replica could be lifted verbatim into its own process; the
// only coupling is the message boundary RunBatch models.
//
// Local ids are dense 0..n_s-1 in ascending global-id order (the plan's
// member lists are ascending), so translating a sorted local result to
// global ids keeps it sorted — the property the merge protocols in
// serve/merge.h rely on.
//
// Per-shard ops budgets: the coordinator caps each query's work on each
// shard with a fresh OpsBudget (the paper's footnote-4 budgeted-termination
// primitive, here playing the scatter-gather role of a per-shard work cap).
// BudgetedIndexView adapts any index with the uniform
// Query(region, keywords, stats, budget) entry point into the 3-argument
// shape QueryEngine expects, injecting the budget per query.

#ifndef KWSC_SERVE_SHARD_REPLICA_H_
#define KWSC_SERVE_SHARD_REPLICA_H_

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/ops_budget.h"
#include "common/timer.h"
#include "core/framework.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "serve/shard_router.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

/// Adapts Index::Query(region, keywords, stats, budget) to the 3-argument
/// engine entry point, giving every query a fresh budget of
/// `per_query_ops` (0 = unlimited, no budget object at all).
template <typename Index>
class BudgetedIndexView {
 public:
  using PointType = typename Index::PointType;
  using BoxType = typename Index::BoxType;

  BudgetedIndexView() = default;
  BudgetedIndexView(const Index* index, uint64_t per_query_ops)
      : index_(index), per_query_ops_(per_query_ops) {}

  std::vector<ObjectId> Query(const BoxType& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr) const {
    if (per_query_ops_ == 0) return index_->Query(q, keywords, stats);
    OpsBudget budget(per_query_ops_);
    return index_->Query(q, keywords, stats, &budget);
  }

 private:
  const Index* index_ = nullptr;
  uint64_t per_query_ops_ = 0;
};

/// What a shard sends back for one batch, static and dynamic replicas
/// alike: one sorted global-id row per query plus the shard's aggregate
/// stats. wall_micros is the shard-local execution wall — on a real
/// deployment, the time this shard's process was busy.
struct ShardBatchAnswer {
  std::vector<std::vector<ObjectId>> rows;
  QueryStats stats;
  uint64_t budget_exhaustions = 0;
  double wall_micros = 0.0;
};

template <typename Index, typename Region = typename Index::BoxType>
class ShardReplica {
 public:
  using PointType = typename Index::PointType;
  using Engine = QueryEngine<BudgetedIndexView<Index>, Region>;

  /// Copies the member slice of (points, corpus) and builds the private
  /// index. `members` must be ascending global ids; `num_threads` is the
  /// replica's own engine parallelism (normally 1 — shards are the unit of
  /// scale-out, threads the unit of scale-up).
  ShardReplica(std::span<const ObjectId> members,
               std::span<const PointType> points, const Corpus& corpus,
               const FrameworkOptions& options, int num_threads,
               uint64_t per_query_ops) {
    to_global_.assign(members.begin(), members.end());
    points_.reserve(members.size());
    for (ObjectId e : members) {
      KWSC_CHECK(e < points.size() && e < corpus.num_objects());
      points_.push_back(points[e]);
    }
    const auto doc_of = [&corpus](ObjectId e) {
      return corpus.doc(e).keywords();
    };
    corpus_ = Corpus::Gather(members, doc_of);
    index_ = std::make_unique<Index>(std::span<const PointType>(points_),
                                     &corpus_, options);
    view_ = BudgetedIndexView<Index>(index_.get(), per_query_ops);
    FrameworkOptions engine_options = options;
    engine_options.num_threads = num_threads;
    engine_ = std::make_unique<Engine>(&view_, engine_options, &registry_);
  }

  size_t num_objects() const { return to_global_.size(); }
  uint64_t weight() const { return corpus_.total_weight(); }
  const Index& index() const { return *index_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Runs the batch on the private engine and translates rows to global
  /// ids. Local emission order is index-specific, so rows are canonicalized
  /// (sorted ascending) at the shard before they cross the wire — the
  /// canonical order DESIGN.md §6d's determinism contract is stated in.
  ShardBatchAnswer RunBatch(std::span<const BatchQuery<Region>> batch) {
    ShardBatchAnswer answer;
    WallTimer timer;
    typename Engine::BatchResult result = engine_->Run(batch);
    answer.rows.resize(result.rows.size());
    for (size_t i = 0; i < result.rows.size(); ++i) {
      std::vector<ObjectId>& row = result.rows[i];
      std::sort(row.begin(), row.end());
      for (ObjectId& id : row) id = to_global_[id];
      answer.rows[i] = std::move(row);
    }
    answer.stats = result.stats;
    answer.budget_exhaustions = result.budget_exhaustions;
    answer.wall_micros = timer.ElapsedMicros();
    return answer;
  }

 private:
  std::vector<ObjectId> to_global_;  // Local id -> global id, ascending.
  std::vector<PointType> points_;
  Corpus corpus_;
  std::unique_ptr<Index> index_;
  BudgetedIndexView<Index> view_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace kwsc

#endif  // KWSC_SERVE_SHARD_REPLICA_H_
