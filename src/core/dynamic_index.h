// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Generic batch-dynamic layer: the logarithmic method (Bentley–Saxe) over
// any DynamizableFamily, with tombstone deletes, background level merges,
// and epoch-snapshot concurrent reads.
//
// Every Table 1 family is a *decomposable* search problem — the answer over
// a union of parts is the union of the answers — so one transformation
// dynamizes them all: a small insertion buffer plus static indexes of
// geometrically growing capacities (slot s holds at most B * 2^s objects,
// where B is the buffer capacity). An insert that fills the buffer performs
// a binary-counter carry: the buffer and every consecutive full level are
// rebuilt into the first empty slot. Each object is rebuilt O(log n) times,
// so inserts cost O(polylog n) amortized build work; a query fans out to
// the buffer plus O(log n) static levels.
//
// Deletes are tombstones (the classic weak-deletion device): Delete marks
// the id dead in an immutable bitmap, queries filter dead ids at emit time,
// and the next carry that gathers a dead member physically drops it. Ids
// are never reused; the registry keeps every inserted object's document and
// geometry exactly once, tombstoned or not, so MemoryBytes() accounting is
// registry-once by construction.
//
// Concurrency (DESIGN.md §7): readers never touch writer state. Query
// acquires the current immutable Snapshot through an EpochPtr
// (common/epoch.h) — buffer entries, level pointers, and the tombstone
// bitmap are all frozen at publish time — and runs at full static-index
// speed. The writer mutates its private state under one Mutex and publishes
// a fresh snapshot after every batch. With a merge pool, carries build the
// new level *off* the lock on the ThreadPool while inserts, deletes, and
// queries proceed; the buffer is allowed to grow past capacity while a
// merge is in flight (at most one runs at a time) and the deferred carry
// drains when it completes. Without a pool, carries run synchronously, and
// the structure is a pure function of the update sequence.
//
// Budgeted queries (footnote 4): the OpsBudget is shared across the buffer
// scan and every level; the first component to exhaust it ends the query —
// no further level is visited.
//
// Persistence: SaveCheckpoint writes a sequence of flat containers — the
// checkpoint container (geometry, tombstones, buffer, level id lists), the
// registry documents as one corpus container, and per present level the
// flat container its index holds (its SaveFlat bytes). LoadCheckpoint
// gathers each level's corpus from the registry and attaches the stored
// container with LoadFlat, so an open costs a registry read plus one flat
// load per level, never a construction; the price is the containers' bytes
// in the file. A level's index charges its own container in MemoryBytes(),
// built or loaded. Only FlatPersistable families checkpoint. Compact()
// rebuilds one static index over the live objects in insertion order;
// after quiescence its SaveFlat bytes are identical to a from-scratch
// build over the same object set (tests/dynamic_index_test.cc holds this
// as a hard invariant).

#ifndef KWSC_CORE_DYNAMIC_INDEX_H_
#define KWSC_CORE_DYNAMIC_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/abi.h"
#include "common/epoch.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "common/memory.h"
#include "common/mutex.h"
#include "common/ops_budget.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/contracts.h"
#include "core/format_versions.h"
#include "core/framework.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

/// The checkpoint container's family tag; the 3 names its generation.
inline constexpr uint32_t kDynamicCheckpointTag =
    FlatFamilyTag('K', 'W', 'D', '3');

/// Root of the checkpoint container, the first of a checkpoint's
/// containers: the writer state's scalars, the options image, and the id
/// lists. Slot s's level holds the level_sizes[s] ids that follow the
/// earlier slots' in level_ids; a size of 0 means the slot is empty.
struct PersistedDynamicCheckpoint {
  uint64_t buffer_capacity;
  uint64_t num_objects;
  uint64_t live_objects;
  uint64_t num_slots;
  PersistedFrameworkOptions options;
  SlabRef geoms;        // GeomType, num_objects entries: the registry.
  SlabRef dead_ids;     // ObjectId, ascending.
  SlabRef buffer_ids;   // ObjectId, buffer order.
  SlabRef level_sizes;  // uint64_t, num_slots entries.
  SlabRef level_ids;    // ObjectId, every level's id map in slot order.
};
KWSC_ABI_STRUCT(PersistedDynamicCheckpoint);

template <typename Family>
class DynamicIndex {
  static_assert(DynamizableFamily<Family>,
                "DynamicIndex requires the DynamizableFamily surface "
                "(core/contracts.h): DynamicGeomType, DynamicRegionType, "
                "MatchesRegion, span-construction, QueryEmit");

 public:
  using GeomType = typename Family::DynamicGeomType;
  using RegionType = typename Family::DynamicRegionType;

  /// One immutable static level. Public so the auditor can walk the level
  /// set through DebugAuditView(); never mutated after construction.
  struct Level {
    std::unique_ptr<Corpus> corpus;
    std::vector<GeomType> geoms;
    std::vector<ObjectId> id_map;  // Local id -> global id.
    std::unique_ptr<Family> index;
  };

  /// `merge_pool`, when non-null, runs level merges in the background:
  /// Insert returns as soon as the carry is *scheduled*, and queries keep
  /// answering from the previous snapshot until the merged level publishes.
  /// A null pool runs carries synchronously inside Insert.
  explicit DynamicIndex(FrameworkOptions options, size_t buffer_capacity = 64,
                        ThreadPool* merge_pool = nullptr)
      : options_(options),
        buffer_capacity_(std::max<size_t>(1, buffer_capacity)),
        merge_pool_(merge_pool),
        dead_(std::make_shared<const std::vector<uint8_t>>()) {
    CheckKeywordArity(options_.k);
    if (merge_pool_ != nullptr) merge_tasks_.emplace(merge_pool_);
  }

  ~DynamicIndex() {
    WaitQuiescent();
    if (merge_tasks_.has_value()) merge_tasks_->Wait();
  }

  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  /// Inserts one object; returns its id (insertion order, dense from 0).
  /// The document must be non-empty. Ids are never reused, including after
  /// Delete.
  ObjectId Insert(const GeomType& geom, Document doc) {
    KWSC_CHECK_MSG(!doc.empty(), "objects need non-empty documents");
    MutexLock lock(&mu_);
    const ObjectId id = AppendLocked(geom, std::move(doc));
    MaybeCarryLocked();
    PublishLocked();
    return id;
  }

  /// Batched insert: appends every object, carries as many times as the
  /// capacity demands, and publishes one snapshot at the end (readers see
  /// the whole batch at once). Returns the id of the first object; the rest
  /// follow densely.
  ObjectId InsertBatch(std::span<const GeomType> geoms,
                       std::vector<Document> docs) {
    KWSC_CHECK_MSG(geoms.size() == docs.size(),
                   "batch geometry (%zu) and documents (%zu) disagree",
                   geoms.size(), docs.size());
    KWSC_CHECK(!geoms.empty());
    MutexLock lock(&mu_);
    const ObjectId first = static_cast<ObjectId>(num_objects_);
    for (size_t i = 0; i < geoms.size(); ++i) {
      KWSC_CHECK_MSG(!docs[i].empty(), "objects need non-empty documents");
      AppendLocked(geoms[i], std::move(docs[i]));
      MaybeCarryLocked();
    }
    PublishLocked();
    return first;
  }

  /// Tombstones one object. Returns true if `id` was live. The registry
  /// entry is retained (ids are never reused); the object stops matching
  /// queries as soon as the snapshot publishes, and is physically dropped by
  /// the next carry that gathers its level.
  bool Delete(ObjectId id) {
    MutexLock lock(&mu_);
    const size_t marked = MarkDeadLocked(std::span<const ObjectId>(&id, 1));
    PublishLocked();
    return marked > 0;
  }

  /// Batched tombstone: one bitmap copy and one snapshot publish for the
  /// whole batch. Returns how many of `ids` were live.
  size_t DeleteBatch(std::span<const ObjectId> ids) {
    MutexLock lock(&mu_);
    const size_t marked = MarkDeadLocked(ids);
    PublishLocked();
    return marked;
  }

  /// Reports q ∩ D(w1,...,wk) over the *live* objects, as global
  /// insertion-order ids. Runs entirely against the current immutable
  /// snapshot — safe to call from any thread while inserts, deletes, and
  /// background merges proceed. `budget`, when non-null, caps the work
  /// across the whole decomposition: the buffer scan and every level charge
  /// the same budget, and the first component to exhaust it ends the query
  /// (stats->budget_exhausted reports the cut).
  std::vector<ObjectId> Query(const RegionType& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr,
                              OpsBudget* budget = nullptr) const {
    const SortedKeywords sorted =
        CanonicalizeQueryKeywords(keywords, options_.k);
    OpsBudget unlimited;
    if (budget == nullptr) budget = &unlimited;
    std::vector<ObjectId> out;
    const std::shared_ptr<const Snapshot> snap = snapshot_.Acquire();
    if (snap == nullptr) return out;
    const std::vector<uint8_t>& dead = *snap->dead;
    const auto is_dead = [&dead](ObjectId id) {
      return id < dead.size() && dead[id] != 0;
    };
    // Buffer: brute scan (it holds O(B) objects by construction).
    for (const BufferEntry& entry : snap->buffer) {
      if (!budget->Charge()) {
        if (stats != nullptr) stats->budget_exhausted = true;
        return out;
      }
      if (stats != nullptr) ++stats->pivot_checks;
      if (!is_dead(entry.id) && Family::MatchesRegion(q, entry.geom) &&
          entry.doc->ContainsAll(sorted.data(), sorted.size())) {
        out.push_back(entry.id);
      }
    }
    // Static levels: delegate and translate local ids. Budgeted termination
    // is global, not per level: an exhausted budget stops the fan-out.
    for (const std::shared_ptr<const Level>& level : snap->levels) {
      if (level == nullptr) continue;
      level->index->QueryEmit(
          q, sorted,
          [&](ObjectId local) {
            const ObjectId global = level->id_map[local];
            if (!is_dead(global)) out.push_back(global);
            return true;
          },
          stats, budget);
      if (budget->Exhausted()) {
        if (stats != nullptr) stats->budget_exhausted = true;
        break;
      }
    }
    return out;
  }

  int k() const { return options_.k; }
  size_t buffer_capacity() const { return buffer_capacity_; }
  const FrameworkOptions& options() const { return options_; }

  /// Total inserted so far, tombstoned included (ids are dense in
  /// [0, num_objects())).
  size_t num_objects() const {
    MutexLock lock(&mu_);
    return num_objects_;
  }

  /// Objects inserted and not tombstoned.
  size_t live_objects() const {
    MutexLock lock(&mu_);
    return live_objects_;
  }

  size_t num_levels() const {
    MutexLock lock(&mu_);
    return levels_.size();
  }

  /// The number of non-empty static levels (exposed so tests can check the
  /// binary-counter shape of the decomposition).
  size_t ActiveLevels() const {
    MutexLock lock(&mu_);
    size_t active = 0;
    for (const auto& level : levels_) active += level != nullptr;
    return active;
  }

  /// True while a background carry is rebuilding a level. Always false
  /// without a merge pool.
  bool MergeInFlight() const {
    MutexLock lock(&mu_);
    return merge_inflight_;
  }

  /// Blocks until no background merge is in flight and no carry is owed
  /// (the buffer is back under capacity). A no-op without a merge pool.
  void WaitQuiescent() {
    MutexLock lock(&mu_);
    while (merge_inflight_) quiescent_cv_.Wait(&mu_);
  }

  /// Registry-once accounting: every inserted object's document and
  /// geometry is charged exactly once (tombstoned ids included — the
  /// registry retains them), plus the per-level copies and indexes (each
  /// index charging its own container). Published snapshots share
  /// the level and document storage counted here; their private state is
  /// O(B) buffer entries of pointers.
  size_t MemoryBytes() const {
    MutexLock lock(&mu_);
    size_t total = VectorBytes(buffer_ids_) + VectorBytes(all_geoms_) +
                   VectorBytes(all_docs_) + VectorBytes(*dead_);
    for (const auto& doc : all_docs_) total += doc->MemoryBytes();
    for (const auto& level : levels_) {
      if (level == nullptr) continue;
      total += level->corpus->MemoryBytes() + level->index->MemoryBytes() +
               VectorBytes(level->id_map) + VectorBytes(level->geoms);
    }
    return total;
  }

  // ---- Persistence (dynamic checkpoint v3; core/format_versions.h) ----

  /// Writes the checkpoint container, then the registry documents as one
  /// corpus container, then each present level's flat container in slot
  /// order. Safe to call mid-merge: the writer state is always a complete
  /// view (a carry's sources stay in place until its level is installed).
  void SaveCheckpoint(std::ostream* out) const
      requires(FlatPersistable<Family>) {
    MutexLock lock(&mu_);
    std::vector<ObjectId> dead_ids;
    for (ObjectId id = 0; id < dead_->size(); ++id) {
      if ((*dead_)[id] != 0) dead_ids.push_back(id);
    }
    std::vector<uint64_t> level_sizes;
    std::vector<ObjectId> level_ids;
    for (const auto& level : levels_) {
      level_sizes.push_back(level != nullptr ? level->id_map.size() : 0);
      if (level == nullptr) continue;
      level_ids.insert(level_ids.end(), level->id_map.begin(),
                       level->id_map.end());
    }
    FlatArenaWriter writer(kDynamicCheckpointTag);
    PersistedDynamicCheckpoint root{};
    root.buffer_capacity = buffer_capacity_;
    root.num_objects = num_objects_;
    root.live_objects = live_objects_;
    root.num_slots = levels_.size();
    PersistFrameworkOptions(options_, &root.options);
    root.geoms = writer.Slab(std::span<const GeomType>(all_geoms_));
    root.dead_ids = writer.Slab<ObjectId>(dead_ids);
    root.buffer_ids = writer.Slab<ObjectId>(buffer_ids_);
    root.level_sizes = writer.Slab<uint64_t>(level_sizes);
    root.level_ids = writer.Slab<ObjectId>(level_ids);
    writer.Root(root);
    writer.WriteTo(out);
    std::vector<ObjectId> all_ids(num_objects_);
    for (ObjectId id = 0; id < num_objects_; ++id) all_ids[id] = id;
    CorpusOfLocked(all_ids).Save(out);
    for (const auto& level : levels_) {
      if (level != nullptr) level->index->SaveFlat(out);
    }
  }

  /// Restores a checkpoint. Each level's corpus is gathered from the
  /// registry and its index attached to the stored container (LoadFlat
  /// validates it against that corpus), so the restored index answers —
  /// and checkpoints — byte-identically to the saved one. (Returned by
  /// pointer: the index owns a Mutex and is deliberately immovable.)
  static std::unique_ptr<DynamicIndex> LoadCheckpoint(
      std::istream* in, ThreadPool* merge_pool = nullptr)
      requires(FlatPersistable<Family>) {
    const std::shared_ptr<const MmapFile> file = ReadFlatContainer(in);
    const FlatArenaReader reader(*file, 0, kDynamicCheckpointTag);
    const PersistedDynamicCheckpoint& root =
        reader.Root<PersistedDynamicCheckpoint>();
    const std::span<const GeomType> geoms =
        reader.Slab<GeomType>(root.geoms);
    const std::span<const ObjectId> dead_ids =
        reader.Slab<ObjectId>(root.dead_ids);
    const std::span<const ObjectId> buffer_ids =
        reader.Slab<ObjectId>(root.buffer_ids);
    const std::span<const uint64_t> level_sizes =
        reader.Slab<uint64_t>(root.level_sizes);
    const std::span<const ObjectId> level_ids =
        reader.Slab<ObjectId>(root.level_ids);
    KWSC_CHECK_MSG(geoms.size() == root.num_objects &&
                       level_sizes.size() == root.num_slots,
                   "checkpoint geometry or level count mismatch");
    std::vector<uint8_t> dead;
    KWSC_CHECK(CheckIdLists(root, dead_ids, buffer_ids, level_sizes,
                            level_ids, &dead, AbortingFlatErrorSink()));
    const Corpus registry = Corpus::Load(in);
    KWSC_CHECK_MSG(registry.num_objects() == root.num_objects,
                   "checkpoint registry holds %zu documents, not %llu",
                   registry.num_objects(),
                   static_cast<unsigned long long>(root.num_objects));

    auto index = std::make_unique<DynamicIndex>(
        RestoreFrameworkOptions(root.options),
        static_cast<size_t>(root.buffer_capacity), merge_pool);
    MutexLock lock(&index->mu_);
    index->num_objects_ = root.num_objects;
    index->live_objects_ = root.live_objects;
    index->all_geoms_.assign(geoms.begin(), geoms.end());
    index->all_docs_.reserve(registry.num_objects());
    for (ObjectId id = 0; id < registry.num_objects(); ++id) {
      index->all_docs_.push_back(
          std::make_shared<const Document>(registry.doc(id)));
    }
    index->dead_ =
        std::make_shared<const std::vector<uint8_t>>(std::move(dead));
    index->buffer_ids_.assign(buffer_ids.begin(), buffer_ids.end());
    const ObjectId* next = level_ids.data();
    for (const uint64_t size : level_sizes) {
      if (size == 0) {
        index->levels_.push_back(nullptr);
        continue;
      }
      index->levels_.push_back(index->AttachLevelLocked(
          std::vector<ObjectId>(next, next + size), ReadFlatContainer(in)));
      next += size;
    }
    index->PublishLocked();
    return index;
  }

  /// A compacted static rebuild: the live objects in insertion order, their
  /// corpus, and one Family index over them. After WaitQuiescent(), the
  /// SaveFlat bytes of the returned index equal those of a from-scratch
  /// build over the same object set — the acceptance invariant of the
  /// dynamic layer.
  struct Compacted {
    std::vector<ObjectId> ids;  // Global ids, insertion order.
    std::vector<GeomType> geoms;
    std::unique_ptr<Corpus> corpus;
    std::unique_ptr<Family> index;
  };

  Compacted Compact() const {
    MutexLock lock(&mu_);
    Compacted out;
    for (ObjectId id = 0; id < num_objects_; ++id) {
      if (IsDeadLocked(id)) continue;
      out.ids.push_back(id);
      out.geoms.push_back(all_geoms_[id]);
    }
    out.corpus = std::make_unique<Corpus>(CorpusOfLocked(out.ids));
    out.index = std::make_unique<Family>(
        std::span<const GeomType>(out.geoms), out.corpus.get(), options_);
    return out;
  }

  /// Read-only copies of the writer state for the multi-level auditor
  /// (audit/index_auditor.h). Taken under the writer lock; the shared level
  /// and tombstone pointers are immutable.
  struct AuditView {
    size_t buffer_capacity = 0;
    uint64_t num_objects = 0;
    uint64_t live_objects = 0;
    bool merge_inflight = false;
    std::vector<ObjectId> buffer_ids;
    std::shared_ptr<const std::vector<uint8_t>> dead;
    std::vector<std::shared_ptr<const Level>> levels;
    std::vector<GeomType> geoms;  // The registry, by insertion id.
    std::vector<std::shared_ptr<const Document>> docs;
  };

  AuditView DebugAuditView() const {
    MutexLock lock(&mu_);
    AuditView view;
    view.buffer_capacity = buffer_capacity_;
    view.num_objects = num_objects_;
    view.live_objects = live_objects_;
    view.merge_inflight = merge_inflight_;
    view.buffer_ids = buffer_ids_;
    view.dead = dead_;
    view.levels = levels_;
    view.geoms = all_geoms_;
    view.docs = all_docs_;
    return view;
  }

 private:
  /// One buffered object as the snapshot sees it: the geometry by value,
  /// the document shared with the registry (charged once).
  struct BufferEntry {
    ObjectId id;
    GeomType geom;
    std::shared_ptr<const Document> doc;
  };

  /// The immutable published state: everything a query touches. Level and
  /// document storage is shared with the writer; the tombstone bitmap is
  /// replaced (never mutated) on delete, and ids past its end are live.
  struct Snapshot {
    std::vector<BufferEntry> buffer;
    std::vector<std::shared_ptr<const Level>> levels;
    std::shared_ptr<const std::vector<uint8_t>> dead;
    uint64_t num_objects = 0;
  };

  /// Everything one carry consumes, captured under the lock so the rebuild
  /// can run without it: the gathered live members (buffer first, then the
  /// consumed levels in slot order — the same order the original
  /// single-family implementation produced) plus the install coordinates.
  struct CarryPlan {
    std::vector<ObjectId> ids;
    std::vector<GeomType> geoms;
    Corpus corpus;
    size_t consumed_buffer = 0;
    size_t num_consumed_slots = 0;
    size_t target_slot = 0;
  };

  ObjectId AppendLocked(const GeomType& geom, Document doc)
      KWSC_REQUIRES(mu_) {
    const ObjectId id = static_cast<ObjectId>(num_objects_++);
    ++live_objects_;
    buffer_ids_.push_back(id);
    all_geoms_.push_back(geom);
    all_docs_.push_back(std::make_shared<const Document>(std::move(doc)));
    return id;
  }

  bool IsDeadLocked(ObjectId id) const KWSC_REQUIRES(mu_) {
    return id < dead_->size() && (*dead_)[id] != 0;
  }

  /// Marks every live id in `ids` dead in one bitmap replacement (the
  /// published bitmaps are immutable; see Snapshot). Returns the number
  /// newly dead.
  size_t MarkDeadLocked(std::span<const ObjectId> ids) KWSC_REQUIRES(mu_) {
    size_t marked = 0;
    std::shared_ptr<std::vector<uint8_t>> next;
    for (ObjectId id : ids) {
      KWSC_CHECK_MSG(id < num_objects_, "delete of unknown id %u", id);
      if (IsDeadLocked(id)) continue;
      if (next == nullptr) {
        next = std::make_shared<std::vector<uint8_t>>(*dead_);
        next->resize(num_objects_, 0);
      }
      if ((*next)[id] != 0) continue;  // Duplicate within the batch.
      (*next)[id] = 1;
      ++marked;
    }
    if (next != nullptr) {
      dead_ = std::move(next);
      live_objects_ -= marked;
    }
    return marked;
  }

  /// Synchronous mode: carry until the buffer is under capacity. Background
  /// mode: schedule one carry if none is in flight; an over-capacity buffer
  /// during a merge is the deferred carry RunMergeTask drains.
  void MaybeCarryLocked() KWSC_REQUIRES(mu_) {
    if (merge_pool_ == nullptr) {
      while (buffer_ids_.size() >= buffer_capacity_) {
        CarryPlan plan = PlanCarryLocked();
        std::shared_ptr<const Level> level = BuildLevel(&plan);
        InstallLocked(plan, std::move(level));
      }
      return;
    }
    if (!merge_inflight_ && buffer_ids_.size() >= buffer_capacity_) {
      merge_inflight_ = true;
      ScheduleCarryLocked(PlanCarryLocked());
    }
  }

  /// Binary-counter carry planning: consume one buffer's worth of ids plus
  /// every consecutive full level from slot 0; the rebuilt level lands in
  /// the first empty slot. Tombstoned members are dropped here — this is
  /// the point deletes reclaim space. Consumed state stays in place (and in
  /// the published snapshot) until InstallLocked.
  CarryPlan PlanCarryLocked() KWSC_REQUIRES(mu_) {
    CarryPlan plan;
    plan.consumed_buffer = std::min(buffer_ids_.size(), buffer_capacity_);
    std::vector<ObjectId> gathered(
        buffer_ids_.begin(),
        buffer_ids_.begin() + static_cast<ptrdiff_t>(plan.consumed_buffer));
    size_t slot = 0;
    while (slot < levels_.size() && levels_[slot] != nullptr) {
      const Level& level = *levels_[slot];
      gathered.insert(gathered.end(), level.id_map.begin(),
                      level.id_map.end());
      ++slot;
    }
    plan.num_consumed_slots = slot;
    plan.target_slot = slot;
    plan.ids.reserve(gathered.size());
    plan.geoms.reserve(gathered.size());
    for (ObjectId id : gathered) {
      if (IsDeadLocked(id)) continue;
      plan.ids.push_back(id);
      plan.geoms.push_back(all_geoms_[id]);
    }
    plan.corpus = CorpusOfLocked(plan.ids);
    return plan;
  }

  /// The registry documents of `ids`, in order, as one corpus.
  Corpus CorpusOfLocked(std::span<const ObjectId> ids) const
      KWSC_REQUIRES(mu_) {
    const std::vector<std::shared_ptr<const Document>>& docs = all_docs_;
    const auto doc_of = [&docs](ObjectId id) {
      return std::span<const KeywordId>(docs[id]->keywords());
    };
    return Corpus::Gather(ids, doc_of);
  }

  /// The checkpoint's id lists against its object count: every id in range,
  /// no tombstone twice, no object in two lists among the buffer and the
  /// levels, and no live object in none (it would be lost), in one pass
  /// over a bitmap that ends as the tombstone bitmap `*dead`. The first
  /// failure goes to `sink` and returns false.
  static bool CheckIdLists(const PersistedDynamicCheckpoint& root,
                           std::span<const ObjectId> dead_ids,
                           std::span<const ObjectId> buffer_ids,
                           std::span<const uint64_t> level_sizes,
                           std::span<const ObjectId> level_ids,
                           std::vector<uint8_t>* dead,
                           const FlatErrorSink& sink) {
    const auto fail = [&sink](const std::string& message) {
      sink("checkpoint: " + message);
      return false;
    };
    constexpr uint8_t kDead = 1;
    constexpr uint8_t kListed = 2;
    std::vector<uint8_t>& marks = *dead;
    marks.assign(root.num_objects, 0);
    for (ObjectId id : dead_ids) {
      if (id >= marks.size() || (marks[id] & kDead) != 0) {
        return fail("tombstone id " + std::to_string(id) +
                    " out of range or repeated");
      }
      marks[id] |= kDead;
    }
    if (root.live_objects != root.num_objects - dead_ids.size()) {
      return fail("live object count disagrees with the tombstones");
    }
    uint64_t level_total = 0;
    for (const uint64_t size : level_sizes) {
      if (size > level_ids.size() - level_total) {
        return fail("level sizes exceed the level id list");
      }
      level_total += size;
    }
    if (level_total != level_ids.size()) {
      return fail("level sizes do not cover the level id list");
    }
    for (const std::span<const ObjectId> list : {buffer_ids, level_ids}) {
      for (ObjectId id : list) {
        if (id >= marks.size() || (marks[id] & kListed) != 0) {
          return fail("object " + std::to_string(id) +
                      " out of range or listed twice");
        }
        marks[id] |= kListed;
      }
    }
    for (size_t id = 0; id < marks.size(); ++id) {
      if (marks[id] == 0) {
        return fail("live object " + std::to_string(id) +
                    " is in no buffer or level");
      }
      marks[id] &= kDead;
    }
    return true;
  }

  /// A checkpointed level: members' geometry and corpus gathered from the
  /// registry, the index attached to the stored container. LoadFlat refuses
  /// a container that does not match the gathered corpus or names an
  /// object outside it; a k other than the index's is refused here.
  std::shared_ptr<const Level> AttachLevelLocked(
      std::vector<ObjectId> id_map, std::shared_ptr<const MmapFile> file) const
      KWSC_REQUIRES(mu_) {
    auto level = std::make_shared<Level>();
    level->geoms.reserve(id_map.size());
    for (ObjectId id : id_map) level->geoms.push_back(all_geoms_[id]);
    level->corpus = std::make_unique<Corpus>(CorpusOfLocked(id_map));
    level->id_map = std::move(id_map);
    level->index = std::make_unique<Family>(
        Family::LoadFlat(std::move(file), level->corpus.get()));
    KWSC_CHECK_MSG(level->index->k() == options_.k,
                   "checkpoint level has k = %d, the index k = %d",
                   level->index->k(), options_.k);
    return level;
  }

  /// The expensive step, runs without the lock in background mode. Null
  /// when the gathered set was entirely tombstoned.
  std::shared_ptr<const Level> BuildLevel(CarryPlan* plan) const {
    if (plan->ids.empty()) return nullptr;
    auto level = std::make_shared<Level>();
    level->geoms = std::move(plan->geoms);
    level->id_map = std::move(plan->ids);
    level->corpus = std::make_unique<Corpus>(std::move(plan->corpus));
    level->index = std::make_unique<Family>(
        std::span<const GeomType>(level->geoms), level->corpus.get(),
        options_);
    return level;
  }

  void InstallLocked(const CarryPlan& plan, std::shared_ptr<const Level> level)
      KWSC_REQUIRES(mu_) {
    buffer_ids_.erase(
        buffer_ids_.begin(),
        buffer_ids_.begin() + static_cast<ptrdiff_t>(plan.consumed_buffer));
    for (size_t slot = 0; slot < plan.num_consumed_slots; ++slot) {
      levels_[slot] = nullptr;
    }
    if (plan.target_slot >= levels_.size()) {
      levels_.resize(plan.target_slot + 1);
    }
    levels_[plan.target_slot] = std::move(level);
  }

  void ScheduleCarryLocked(CarryPlan plan) KWSC_REQUIRES(mu_) {
    merge_tasks_->Run(
        [this, plan = std::move(plan)]() mutable { RunMergeTask(&plan); });
  }

  /// The background carry: build off-lock, install, publish, chain the next
  /// carry if inserts outran this one, signal quiescence otherwise.
  void RunMergeTask(CarryPlan* plan) KWSC_EXCLUDES(mu_) {
    std::shared_ptr<const Level> level = BuildLevel(plan);
    MutexLock lock(&mu_);
    InstallLocked(*plan, std::move(level));
    if (buffer_ids_.size() >= buffer_capacity_) {
      ScheduleCarryLocked(PlanCarryLocked());
    } else {
      merge_inflight_ = false;
      quiescent_cv_.NotifyAll();
    }
    PublishLocked();
  }

  /// Installs a fresh immutable snapshot of the writer state. Everything it
  /// shares (levels, documents, the tombstone bitmap) is frozen; only the
  /// O(|buffer|) entry vector is copied.
  void PublishLocked() KWSC_REQUIRES(mu_) {
    auto snap = std::make_shared<Snapshot>();
    snap->buffer.reserve(buffer_ids_.size());
    for (ObjectId id : buffer_ids_) {
      snap->buffer.push_back(BufferEntry{id, all_geoms_[id], all_docs_[id]});
    }
    snap->levels = levels_;
    snap->dead = dead_;
    snap->num_objects = num_objects_;
    snapshot_.Publish(std::move(snap));
  }

  const FrameworkOptions options_;
  const size_t buffer_capacity_;
  ThreadPool* const merge_pool_;
  std::optional<TaskGroup> merge_tasks_;  // Engaged iff merge_pool_ != null.

  mutable Mutex mu_;
  CondVar quiescent_cv_;

  uint64_t num_objects_ KWSC_GUARDED_BY(mu_) = 0;
  uint64_t live_objects_ KWSC_GUARDED_BY(mu_) = 0;

  // Buffered objects, as ids into the global registry below (the buffer owns
  // no copies of its own; snapshots copy the id/geometry pair and share the
  // document). May exceed buffer_capacity_ while a merge is in flight.
  std::vector<ObjectId> buffer_ids_ KWSC_GUARDED_BY(mu_);

  // Global object registry (documents/geometry by insertion id, tombstoned
  // ids retained). Documents are shared_ptr so snapshots and the registry
  // charge the bytes once.
  std::vector<std::shared_ptr<const Document>> all_docs_ KWSC_GUARDED_BY(mu_);
  std::vector<GeomType> all_geoms_ KWSC_GUARDED_BY(mu_);

  // Tombstones. The pointed-to bitmap is immutable (shared with published
  // snapshots); deletes install a replacement. Ids past the end are live.
  std::shared_ptr<const std::vector<uint8_t>> dead_ KWSC_GUARDED_BY(mu_);

  // The level set: slot s holds at most buffer_capacity_ * 2^s objects.
  // Levels are immutable and shared with published snapshots.
  std::vector<std::shared_ptr<const Level>> levels_ KWSC_GUARDED_BY(mu_);

  bool merge_inflight_ KWSC_GUARDED_BY(mu_) = false;

  // The reader handoff point (common/epoch.h): queries Acquire, the writer
  // Publishes after every mutation batch.
  EpochPtr<Snapshot> snapshot_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_DYNAMIC_INDEX_H_
