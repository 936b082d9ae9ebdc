// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared v2 flat-container schema for the framework tree families.
//
// A flat container (common/flat_arena.h) for a tree index stores one
// FlatNodeRec per node, in DFS preorder (DESIGN.md "On-disk layout v2" says
// why), plus five shared pools the records index into: pivots, large-keyword
// tables, tuple keys, and materialized entries and objects.
//
// A build fills the records and, through FlatDirPoolWriter, the pools with
// DirectoryBuilder's sorted output, writes the container once and attaches
// it as a load does, so a built index is a loaded one. The attach builds
// nothing: the query (core/tree_descent.h) reads the records in place and
// resolves each directory range it needs through FlatDirPoolReader,
// unchecked. So every attach checks what that path dereferences: the
// reader's Init makes one linear pass over the two object-id pools (pivots
// and materialized lists) against the object count, and the *shallow* pass
// (CheckFlatNodes) walks the node slab — child indices, preorder, levels,
// every directory range. The *deep* pass (run by the auditor) additionally
// scans the other pools for canonical sort orders, which a query never
// relies on for memory safety.

#ifndef KWSC_CORE_FLAT_FORMAT_H_
#define KWSC_CORE_FLAT_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "common/memory.h"
#include "core/node_directory.h"
#include "text/document.h"

namespace kwsc {

/// One tree node in the flat layout. `cell` is the node's bounding cell in
/// the family's native geometry (rank-space box for ORP-KW, scalar box for
/// SP-KW). Pool fields are element offsets into the shared directory pools.
/// Writers memset records before filling them so any padding introduced by
/// an unusual CellT stays deterministic.
template <typename CellT>
struct FlatNodeRec {
  CellT cell;
  int32_t child[2];
  int16_t level;
  uint16_t num_children;
  uint32_t pivot_count;
  uint64_t weight;
  uint64_t pivot_begin;
  uint64_t large_begin;
  uint64_t tuple_begin[2];
  uint64_t mat_begin;
  uint32_t large_count;
  uint32_t tuple_count[2];
  uint32_t mat_count;
};

/// SlabRefs for the five shared directory pools; embedded in family roots.
struct FlatDirPools {
  SlabRef pivot_pool;      // ObjectId
  SlabRef large_pool;      // FlatLargeEntry
  SlabRef tuple_pool;      // uint64_t
  SlabRef mat_entry_pool;  // FlatMatEntry
  SlabRef mat_obj_pool;    // ObjectId
};
KWSC_ABI_STRUCT(FlatDirPools);

/// Accumulates the directory pools of one tree as it is built: the builder's
/// output for each node in arena (preorder) order, then the pools as slabs.
class FlatDirPoolWriter {
 public:
  /// Appends one node's directory and fills the pool fields of `rec` (the
  /// caller fills cell/child/level). `Rec` is a flat node record, or any
  /// record with the same pool fields and one tuple slot per child.
  template <typename Rec>
  void Append(const DirectoryContents& dir, Rec* rec) {
    KWSC_CHECK(dir.child_tuples.size() <= std::size(rec->tuple_begin));
    rec->num_children = static_cast<uint16_t>(dir.child_tuples.size());
    rec->weight = dir.weight;
    rec->pivot_count = Put(dir.pivots, &pivot_pool_, &rec->pivot_begin);
    rec->large_count = Put(dir.large, &large_pool_, &rec->large_begin);
    for (size_t c = 0; c < dir.child_tuples.size(); ++c) {
      rec->tuple_count[c] =
          Put(dir.child_tuples[c], &tuple_pool_, &rec->tuple_begin[c]);
    }
    PutMaterialized(dir.materialized, dir.mat_objects, &rec->mat_begin);
    rec->mat_count = static_cast<uint32_t>(dir.materialized.size());
  }

  /// Appends the pools of a subtree built into a private writer, rebasing
  /// the pool fields of its records `recs` onto this writer's pools. Forked
  /// subtrees spliced in preorder reproduce the sequential pools exactly.
  template <typename Rec>
  void Splice(const FlatDirPoolWriter& sub, std::span<Rec> recs) {
    for (Rec& rec : recs) {
      rec.pivot_begin += pivot_pool_.size();
      rec.large_begin += large_pool_.size();
      for (size_t c = 0; c < rec.num_children; ++c) {
        rec.tuple_begin[c] += tuple_pool_.size();
      }
      rec.mat_begin += mat_entry_pool_.size();
    }
    uint64_t begin = 0;  // The subtree's offsets, already rebased above.
    Put(sub.pivot_pool_, &pivot_pool_, &begin);
    Put(sub.large_pool_, &large_pool_, &begin);
    Put(sub.tuple_pool_, &tuple_pool_, &begin);
    PutMaterialized(sub.mat_entry_pool_, sub.mat_obj_pool_, &begin);
  }

  size_t MemoryBytes() const {
    return VectorBytes(pivot_pool_) + VectorBytes(large_pool_) +
           VectorBytes(tuple_pool_) + VectorBytes(mat_entry_pool_) +
           VectorBytes(mat_obj_pool_);
  }

  FlatDirPools WriteSlabs(FlatArenaWriter* writer) const {
    FlatDirPools pools;
    pools.pivot_pool = writer->Slab<ObjectId>(pivot_pool_);
    pools.large_pool = writer->Slab<FlatLargeEntry>(large_pool_);
    pools.tuple_pool = writer->Slab<uint64_t>(tuple_pool_);
    pools.mat_entry_pool = writer->Slab<FlatMatEntry>(mat_entry_pool_);
    pools.mat_obj_pool = writer->Slab<ObjectId>(mat_obj_pool_);
    return pools;
  }

 private:
  friend class FlatDirPoolReader;

  // Appends `items` to `pool`; returns their count, their offset in `*begin`.
  template <typename T>
  static uint32_t Put(const std::vector<T>& items, std::vector<T>* pool,
                      uint64_t* begin) {
    *begin = pool->size();
    pool->insert(pool->end(), items.begin(), items.end());
    return static_cast<uint32_t>(items.size());
  }

  // Appends materialized entries whose `begin` index `objects`, rebased onto
  // the object pool.
  void PutMaterialized(const std::vector<FlatMatEntry>& entries,
                       const std::vector<ObjectId>& objects, uint64_t* begin) {
    const uint64_t base = mat_obj_pool_.size();
    Put(entries, &mat_entry_pool_, begin);
    for (size_t i = *begin; i < mat_entry_pool_.size(); ++i) {
      mat_entry_pool_[i].begin += base;
    }
    mat_obj_pool_.insert(mat_obj_pool_.end(), objects.begin(), objects.end());
  }

  std::vector<ObjectId> pivot_pool_;
  std::vector<FlatLargeEntry> large_pool_;
  std::vector<uint64_t> tuple_pool_;
  std::vector<FlatMatEntry> mat_entry_pool_;
  std::vector<ObjectId> mat_obj_pool_;
};

/// Resolves the shared pools of a container and reads each node record's
/// directory ranges from them. CheckRanges is the attach's check of one
/// record, through the sink (the load path passes AbortingFlatErrorSink());
/// the range accessors are unchecked and serve only records it passed.
class FlatDirPoolReader {
 public:
  FlatDirPoolReader() = default;

  /// Views the pools a writer holds, for an index that keeps its
  /// directories in memory instead of a container (SP-KW-HS).
  explicit FlatDirPoolReader(const FlatDirPoolWriter& pools)
      : pivot_pool_(pools.pivot_pool_),
        large_pool_(pools.large_pool_),
        tuple_pool_(pools.tuple_pool_),
        mat_entry_pool_(pools.mat_entry_pool_),
        mat_obj_pool_(pools.mat_obj_pool_) {}

  /// Resolves the pool slabs, then checks every object id in the pivot and
  /// materialized-object pools against `num_objects` in one linear pass:
  /// queries index the rank points and the corpus with those ids unchecked.
  /// Returns false (after sinking a message) when any slab reference is out
  /// of bounds or misaligned, or any id is out of range.
  bool Init(const FlatArenaReader& reader, const FlatDirPools& pools,
            uint64_t num_objects, const FlatErrorSink& sink) {
    bool ok = true;
    auto take = [&](auto tag, SlabRef ref, const char* name, auto* out) {
      using T = decltype(tag);
      if (!reader.SlabOk<T>(ref)) {
        sink(std::string(name) + " pool slab out of bounds");
        ok = false;
        return;
      }
      *out = reader.Slab<T>(ref);
    };
    take(ObjectId{}, pools.pivot_pool, "pivot", &pivot_pool_);
    take(FlatLargeEntry{}, pools.large_pool, "large", &large_pool_);
    take(uint64_t{}, pools.tuple_pool, "tuple", &tuple_pool_);
    take(FlatMatEntry{}, pools.mat_entry_pool, "mat-entry", &mat_entry_pool_);
    take(ObjectId{}, pools.mat_obj_pool, "mat-object", &mat_obj_pool_);
    if (!ok) return false;
    return IdsInRange(pivot_pool_, "pivot", num_objects, sink) &&
           IdsInRange(mat_obj_pool_, "materialized", num_objects, sink);
  }

  /// The attach's check of one node record: every pool range inside its
  /// pool, including each materialized entry's object range (the query
  /// path dereferences those unchecked). Returns false after sinking.
  template <typename Rec>
  bool CheckRanges(const Rec& rec, int64_t node,
                   const FlatErrorSink& sink) const {
    constexpr size_t kSlots = std::extent_v<decltype(Rec::tuple_begin)>;
    static_assert(kSlots <= FlatDirView::kMaxChildren);
    auto bad = [&](const char* what) {
      sink("node " + std::to_string(node) + ": flat " + what +
           " range out of pool bounds");
      return false;
    };
    if (rec.num_children > kSlots) {
      sink("node " + std::to_string(node) + ": flat num_children " +
           std::to_string(rec.num_children) + " exceeds fanout limit");
      return false;
    }
    if (!RangeOk(pivot_pool_, rec.pivot_begin, rec.pivot_count))
      return bad("pivot");
    if (!RangeOk(large_pool_, rec.large_begin, rec.large_count))
      return bad("large");
    for (size_t c = 0; c < rec.num_children; ++c) {
      if (!RangeOk(tuple_pool_, rec.tuple_begin[c], rec.tuple_count[c]))
        return bad("tuple");
    }
    if (!RangeOk(mat_entry_pool_, rec.mat_begin, rec.mat_count))
      return bad("materialized-entry");
    for (const FlatMatEntry& entry : Materialized(rec)) {
      if (!RangeOk(mat_obj_pool_, entry.begin, entry.count))
        return bad("materialized-object");
    }
    return true;
  }

  // ---- One record's directory ranges, unchecked: CheckRanges passed. ----

  template <typename Rec>
  std::span<const ObjectId> Pivots(const Rec& rec) const {
    return pivot_pool_.subspan(rec.pivot_begin, rec.pivot_count);
  }

  template <typename Rec>
  std::span<const FlatLargeEntry> Large(const Rec& rec) const {
    return large_pool_.subspan(rec.large_begin, rec.large_count);
  }

  /// Child `c`'s tuple registry; empty past the record's num_children,
  /// whose slots CheckRanges does not read.
  template <typename Rec>
  std::span<const uint64_t> ChildTuples(const Rec& rec, size_t c) const {
    if (c >= rec.num_children) return {};
    return tuple_pool_.subspan(rec.tuple_begin[c], rec.tuple_count[c]);
  }

  template <typename Rec>
  std::span<const FlatMatEntry> Materialized(const Rec& rec) const {
    return mat_entry_pool_.subspan(rec.mat_begin, rec.mat_count);
  }

  /// The objects of one materialized entry of a checked record.
  std::span<const ObjectId> Objects(const FlatMatEntry& entry) const {
    return mat_obj_pool_.subspan(entry.begin, entry.count);
  }

  /// All of one record's directory, for the readers that take it whole (the
  /// auditor and the deep pass).
  template <typename Rec>
  FlatDirView View(const Rec& rec) const {
    FlatDirView view;
    view.pivots = Pivots(rec);
    view.large = Large(rec);
    view.num_children = rec.num_children;
    for (size_t c = 0; c < rec.num_children; ++c) {
      view.child_tuples[c] = ChildTuples(rec, c);
    }
    view.materialized = Materialized(rec);
    view.mat_pool = mat_obj_pool_;
    view.weight = rec.weight;
    return view;
  }

 private:
  template <typename T>
  static bool RangeOk(std::span<const T> pool, uint64_t begin,
                      uint64_t count) {
    return begin <= pool.size() && count <= pool.size() - begin;
  }

  /// A branch-free max over the pool; the offender is located only to word
  /// the complaint.
  static bool IdsInRange(std::span<const ObjectId> pool, const char* name,
                         uint64_t num_objects, const FlatErrorSink& sink) {
    ObjectId max_id = 0;
    for (ObjectId id : pool) max_id = std::max(max_id, id);
    if (pool.empty() || max_id < num_objects) return true;
    const size_t at = static_cast<size_t>(
        std::find_if(pool.begin(), pool.end(),
                     [num_objects](ObjectId id) { return id >= num_objects; }) -
        pool.begin());
    sink(std::string("flat ") + name + " object id " +
         std::to_string(pool[at]) + " at pool entry " + std::to_string(at) +
         " out of range (" + std::to_string(num_objects) + " objects)");
    return false;
  }

  std::span<const ObjectId> pivot_pool_;
  std::span<const FlatLargeEntry> large_pool_;
  std::span<const uint64_t> tuple_pool_;
  std::span<const FlatMatEntry> mat_entry_pool_;
  std::span<const ObjectId> mat_obj_pool_;
};

/// The root checks every tree attach shares, before its family's own:
/// dimensionality, arity, and the directory pools (`pools`, with the
/// object-id pass). Each problem goes to `sink`.
template <typename Root>
bool CheckFlatTreeRoot(const FlatArenaReader& reader, const Root& root,
                       int dim, const FlatErrorSink& sink,
                       FlatDirPoolReader* pools) {
  if (root.dim != static_cast<uint32_t>(dim)) {
    sink("flat root dimensionality mismatch");
    return false;
  }
  if (root.options.k < 2 || root.options.k > kMaxQueryKeywords) {
    sink("flat root k must be in [2, 8], got " +
         std::to_string(root.options.k));
    return false;
  }
  return pools->Init(reader, root.dir_pools, root.num_objects, sink);
}

/// Appends a zeroed (padding included), childless record for a tree build.
template <typename CellT>
FlatNodeRec<CellT>& AppendFlatNodeRec(const CellT& cell, int level,
                                      std::vector<FlatNodeRec<CellT>>* recs) {
  FlatNodeRec<CellT>& rec = recs->emplace_back();
  std::memset(static_cast<void*>(&rec), 0, sizeof(rec));
  rec.cell = cell;
  rec.child[0] = -1;
  rec.child[1] = -1;
  rec.level = static_cast<int16_t>(level);
  return rec;
}

/// A record with no child is a leaf.
template <typename Rec>
bool IsLeaf(const Rec& rec) {
  for (const int32_t child : rec.child) {
    if (child >= 0) return false;
  }
  return true;
}

/// The shallow check over the node slab, run on every attach: child indices
/// in range and in DFS preorder, levels increase by one, and each record's
/// directory ranges inside the pools (FlatDirPoolReader::CheckRanges). The
/// query then reads the records in place with no check of its own. Of the
/// pools it reads only the materialized entries, so an mmap load faults in
/// little beyond the node records.
template <typename CellT>
bool CheckFlatNodes(std::span<const FlatNodeRec<CellT>> recs,
                    const FlatDirPoolReader& pools, const FlatErrorSink& sink) {
  bool ok = true;
  // An empty node slab is legal: an index over an empty corpus has no tree.
  const int64_t n = static_cast<int64_t>(recs.size());
  for (int64_t i = 0; i < n; ++i) {
    const FlatNodeRec<CellT>& rec = recs[static_cast<size_t>(i)];
    for (int c = 0; c < 2; ++c) {
      const int32_t child = rec.child[c];
      if (child == -1) continue;
      if (child <= i || child >= n) {
        sink("node " + std::to_string(i) + ": flat child index " +
             std::to_string(child) + " out of range");
        ok = false;
        continue;
      }
      if (c == 0 && child != i + 1) {
        sink("node " + std::to_string(i) + ": flat first child " +
             std::to_string(child) + " breaks DFS preorder");
        ok = false;
      }
      if (recs[static_cast<size_t>(child)].level != rec.level + 1) {
        sink("node " + std::to_string(i) + ": flat child level skew");
        ok = false;
      }
    }
    if (!pools.CheckRanges(rec, i, sink)) ok = false;
  }
  return ok;
}

/// Deep content validation (auditor only): canonical sort orders inside
/// every directory range. Object-id bounds are FlatDirPoolReader::Init's,
/// on every load.
template <typename CellT>
bool ValidateFlatTreeDeep(std::span<const FlatNodeRec<CellT>> nodes,
                          const FlatDirPoolReader& pools,
                          const FlatErrorSink& sink) {
  bool ok = true;
  for (int64_t i = 0; i < static_cast<int64_t>(nodes.size()); ++i) {
    const FlatNodeRec<CellT>& rec = nodes[static_cast<size_t>(i)];
    if (!pools.CheckRanges(rec, i, sink)) {
      ok = false;
      continue;
    }
    const FlatDirView view = pools.View(rec);
    auto complain = [&](const std::string& what) {
      sink("node " + std::to_string(i) + ": " + what);
      ok = false;
    };
    for (size_t j = 0; j < view.large.size(); ++j) {
      // lids are assigned in increasing keyword order, so in sorted order
      // the lid sequence is exactly 0, 1, 2, ...
      if (j > 0 && view.large[j].keyword <= view.large[j - 1].keyword) {
        complain("flat large table not strictly keyword-sorted");
        break;
      }
      if (view.large[j].lid != j) {
        complain("flat large table lid not canonical");
        break;
      }
    }
    for (size_t c = 0; c < view.num_children; ++c) {
      const std::span<const uint64_t> keys = view.child_tuples[c];
      for (size_t j = 1; j < keys.size(); ++j) {
        if (keys[j] <= keys[j - 1]) {
          complain("flat tuple keys not strictly sorted");
          break;
        }
      }
    }
    for (size_t j = 0; j < view.materialized.size(); ++j) {
      const FlatMatEntry& entry = view.materialized[j];
      if (j > 0 && entry.keyword <= view.materialized[j - 1].keyword) {
        complain("flat materialized entries not strictly keyword-sorted");
        break;
      }
      if (entry.count == 0) {
        complain("flat materialized entry empty");
        break;
      }
    }
  }
  return ok;
}

}  // namespace kwsc

#endif  // KWSC_CORE_FLAT_FORMAT_H_
