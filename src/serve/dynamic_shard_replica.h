// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Batch-dynamic shard replicas and their coordinator (DESIGN.md §6, §7).
//
// The static serving path (serve/shard_replica.h) builds each replica once
// from a ShardPlan slice and then only answers queries. This file is the
// update-capable counterpart: each DynamicShardReplica owns a private
// DynamicIndex<Family> (core/dynamic_index.h), so inserts and tombstone
// deletes apply per shard with Bentley–Saxe carries — optionally rebuilt on
// a background merge pool — while queries keep running against immutable
// epoch snapshots. The DynamicCoordinator fronts S such replicas and serves
// mixed update/query traffic: updates route to their owning shard, query
// batches run through the static Coordinator's ScatterGather
// (serve/coordinator.h) — the same merge protocols, byte accounting and
// serve.* counters.
//
// Routing: a static plan is a function of the full corpus, which a dynamic
// workload does not have up front. Dynamic arrivals therefore route by
// global id modulo S — deterministic, balanced to within one object, and
// independent of geometry. Global ids are assigned by the coordinator in
// arrival order and never reused (the tombstone contract of the dynamic
// layer), so each replica's local→global map is ascending and a sorted
// local row translates to a sorted global row — the property the merge
// protocols rely on, exactly as in the static path.
//
// Threading: replicas are internally synchronized (an annotated Mutex
// guards the id maps; the DynamicIndex has its own writer lock and
// epoch-snapshot reads), so one updater thread and concurrent query fan-out
// coexist without external locking. Background carries run on the caller's
// merge pool and never block queries.

#ifndef KWSC_SERVE_DYNAMIC_SHARD_REPLICA_H_
#define KWSC_SERVE_DYNAMIC_SHARD_REPLICA_H_

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/ops_budget.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dynamic_index.h"
#include "core/framework.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "serve/coordinator.h"
#include "text/document.h"

namespace kwsc {

/// One update in a mixed traffic stream, already routed to a shard. For
/// kInsert, `global_id` is the coordinator-assigned id and geom/doc carry
/// the payload; for kDelete only `global_id` is meaningful.
template <typename Geom>
struct DynamicUpdate {
  enum class Kind : uint8_t { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  ObjectId global_id = 0;
  Geom geom{};
  Document doc;
};

template <typename Family,
          typename Region = typename Family::DynamicRegionType>
class DynamicShardReplica {
 public:
  using GeomType = typename Family::DynamicGeomType;
  using Update = DynamicUpdate<GeomType>;

  DynamicShardReplica(const FrameworkOptions& options, size_t buffer_capacity,
                      uint64_t per_query_ops, ThreadPool* merge_pool = nullptr)
      : index_(options, buffer_capacity, merge_pool),
        per_query_ops_(per_query_ops) {}

  /// Applies a routed update run in arrival order. Contiguous runs of the
  /// same kind batch into one InsertBatch/DeleteBatch so a burst pays one
  /// snapshot publish (and at most one carry schedule), not one per object.
  void ApplyUpdates(std::span<const Update> updates) KWSC_EXCLUDES(mu_) {
    std::vector<GeomType> geoms;
    std::vector<Document> docs;
    std::vector<ObjectId> insert_gids;
    std::vector<ObjectId> delete_locals;
    MutexLock lock(&mu_);
    auto flush_inserts = [&] {
      if (insert_gids.empty()) return;
      const ObjectId first = index_.InsertBatch(geoms, std::move(docs));
      KWSC_CHECK(first == to_global_.size());
      to_global_.insert(to_global_.end(), insert_gids.begin(),
                        insert_gids.end());
      geoms.clear();
      docs = {};
      insert_gids.clear();
    };
    auto flush_deletes = [&] {
      if (delete_locals.empty()) return;
      index_.DeleteBatch(delete_locals);
      delete_locals.clear();
    };
    for (const Update& u : updates) {
      if (u.kind == Update::Kind::kInsert) {
        flush_deletes();
        // Ids are assigned in arrival order, so the map stays ascending —
        // the invariant sorted-row translation depends on.
        KWSC_CHECK(insert_gids.empty() ? (to_global_.empty() ||
                                          u.global_id > to_global_.back())
                                       : u.global_id > insert_gids.back());
        geoms.push_back(u.geom);
        docs.push_back(u.doc);
        insert_gids.push_back(u.global_id);
      } else {
        flush_inserts();
        delete_locals.push_back(LocalIdLocked(u.global_id));
      }
    }
    flush_inserts();
    flush_deletes();
  }

  size_t num_objects() const KWSC_EXCLUDES(mu_) {
    return index_.num_objects();
  }
  size_t live_objects() const KWSC_EXCLUDES(mu_) {
    return index_.live_objects();
  }
  const DynamicIndex<Family>& index() const { return index_; }

  /// Blocks until no carry is in flight on this shard.
  void WaitQuiescent() { index_.WaitQuiescent(); }

  /// Runs the batch against the current epoch snapshot and translates rows
  /// to sorted global ids. Queries here deliberately bypass QueryEngine:
  /// snapshot reads are already wait-free, and batch parallelism in the
  /// dynamic path comes from the shard fan-out, not intra-shard threads.
  ShardBatchAnswer RunBatch(std::span<const BatchQuery<Region>> batch) const
      KWSC_EXCLUDES(mu_) {
    ShardBatchAnswer answer;
    WallTimer timer;
    answer.rows.reserve(batch.size());
    for (const BatchQuery<Region>& q : batch) {
      QueryStats stats;
      std::vector<ObjectId> row;
      if (per_query_ops_ == 0) {
        row = index_.Query(q.region, q.keywords, &stats);
      } else {
        OpsBudget budget(per_query_ops_);
        row = index_.Query(q.region, q.keywords, &stats, &budget);
      }
      if (stats.budget_exhausted) ++answer.budget_exhaustions;
      MergeQueryStats(stats, &answer.stats);
      std::sort(row.begin(), row.end());
      {
        // The map only grows, and every id the snapshot can emit was
        // inserted (and therefore mapped) before the snapshot published.
        MutexLock lock(&mu_);
        for (ObjectId& id : row) id = to_global_[id];
      }
      answer.rows.push_back(std::move(row));  // Ascending map: still sorted.
    }
    answer.wall_micros = timer.ElapsedMicros();
    return answer;
  }

 private:
  /// Global id -> local id by binary search (the map is ascending).
  ObjectId LocalIdLocked(ObjectId global_id) const KWSC_REQUIRES(mu_) {
    const auto it =
        std::lower_bound(to_global_.begin(), to_global_.end(), global_id);
    KWSC_CHECK_MSG(it != to_global_.end() && *it == global_id,
                   "update routed to a shard that does not own the id");
    return static_cast<ObjectId>(it - to_global_.begin());
  }

  DynamicIndex<Family> index_;
  const uint64_t per_query_ops_;
  mutable Mutex mu_;
  /// Local id -> global id, ascending (ids are assigned in arrival order).
  std::vector<ObjectId> to_global_ KWSC_GUARDED_BY(mu_);
};

/// Fronts S dynamic replicas with the static Coordinator's scatter-gather
/// and merge protocols, plus an update path. Reuses ServeOptions; the
/// static plan fields it has no dynamic equivalent for (threads_per_shard)
/// are ignored — see the routing note in the file comment.
template <typename Family,
          typename Region = typename Family::DynamicRegionType>
class DynamicCoordinator {
 public:
  using GeomType = typename Family::DynamicGeomType;
  using Replica = DynamicShardReplica<Family, Region>;
  using Update = typename Replica::Update;
  using Result = ServeResult;

  DynamicCoordinator(uint32_t num_shards, const FrameworkOptions& index_options,
                     const ServeOptions& options, size_t buffer_capacity = 64,
                     ThreadPool* merge_pool = nullptr,
                     obs::MetricsRegistry* registry = nullptr)
      : options_(options), registry_(registry) {
    KWSC_CHECK(num_shards >= 1);
    replicas_.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      replicas_.push_back(std::make_unique<Replica>(
          index_options, buffer_capacity, options.per_shard_query_ops,
          merge_pool));
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

  uint32_t ShardOf(ObjectId global_id) const {
    return static_cast<uint32_t>(global_id % replicas_.size());
  }

  /// Inserts one object; returns its global id.
  ObjectId Insert(const GeomType& geom, Document doc) KWSC_EXCLUDES(mu_) {
    Update u;
    u.kind = Update::Kind::kInsert;
    u.geom = geom;
    u.doc = std::move(doc);
    {
      MutexLock lock(&mu_);
      u.global_id = next_global_id_++;
    }
    replicas_[ShardOf(u.global_id)]->ApplyUpdates({&u, 1});
    if (registry_ != nullptr) registry_->AddCounter("serve.updates", 1);
    return u.global_id;
  }

  /// Tombstones one object on its owning shard.
  void Delete(ObjectId global_id) KWSC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      KWSC_CHECK(global_id < next_global_id_);
    }
    Update u;
    u.kind = Update::Kind::kDelete;
    u.global_id = global_id;
    replicas_[ShardOf(global_id)]->ApplyUpdates({&u, 1});
    if (registry_ != nullptr) registry_->AddCounter("serve.updates", 1);
  }

  /// Applies a mixed update stream: assigns ids to inserts in arrival
  /// order, routes every update to its owning shard, and applies each
  /// shard's sub-stream in arrival order (cross-shard order is immaterial —
  /// shards are disjoint). Returns the global id of the first insert, or
  /// the next id when the stream held none.
  ObjectId ApplyUpdates(std::span<Update> updates) KWSC_EXCLUDES(mu_) {
    ObjectId first = 0;
    {
      MutexLock lock(&mu_);
      first = next_global_id_;
      for (Update& u : updates) {
        if (u.kind == Update::Kind::kInsert) u.global_id = next_global_id_++;
      }
    }
    std::vector<std::vector<Update>> routed(replicas_.size());
    for (Update& u : updates) {
      routed[ShardOf(u.global_id)].push_back(std::move(u));
    }
    for (size_t s = 0; s < replicas_.size(); ++s) {
      if (!routed[s].empty()) replicas_[s]->ApplyUpdates(routed[s]);
    }
    if (registry_ != nullptr) {
      registry_->AddCounter("serve.updates", updates.size());
    }
    return first;
  }

  /// Blocks until every shard's carries have drained.
  void WaitQuiescent() {
    for (auto& r : replicas_) r->WaitQuiescent();
  }

  size_t live_objects() const {
    size_t total = 0;
    for (const auto& r : replicas_) total += r->live_objects();
    return total;
  }

  /// Scatter-gather over all shards: every shard runs the whole batch
  /// against its current snapshot (see ScatterGather).
  Result Run(std::span<const BatchQuery<Region>> batch) {
    return ScatterGather(replicas_, pool_.get(), options_, registry_, batch);
  }

 private:
  ServeOptions options_;
  obs::MetricsRegistry* registry_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<ThreadPool> pool_;
  Mutex mu_;
  ObjectId next_global_id_ KWSC_GUARDED_BY(mu_) = 0;
};

}  // namespace kwsc

#endif  // KWSC_SERVE_DYNAMIC_SHARD_REPLICA_H_
