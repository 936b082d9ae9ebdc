// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared v2 flat-container schema for the framework tree families.
//
// A flat container (common/flat_arena.h) for a tree index stores one
// FlatNodeRec per node plus five shared pools the per-node records index
// into: the pivot pool, the large-keyword table pool, the tuple-key pool,
// and the materialized entry/object pools. Node records keep the same DFS
// preorder as the in-memory arena — the auditor's tree-structure check pins
// that order, so a flat-loaded index re-saves to the built index's bytes.
// (DESIGN.md "On-disk layout v2" records why preorder is kept over a
// BFS/van-Emde-Boas order.)
//
// FlatDirPoolWriter flattens NodeDirectory contents through the canonical
// sorted getters; FlatDirPoolReader re-points directories at the mapped
// pools via NodeDirectory::AttachFlat. Every load checks what the query
// path dereferences unchecked: the reader's Init makes one linear pass over
// the two object-id pools (pivots and materialized lists) against the
// object count, and the *shallow* pass walks the node slab — offsets,
// bounds, child indices, preorder. The *deep* pass (run by the auditor)
// additionally scans the other pools for canonical sort orders, which a
// query never relies on for memory safety.

#ifndef KWSC_CORE_FLAT_FORMAT_H_
#define KWSC_CORE_FLAT_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
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

/// Accumulates directory contents across nodes during SaveFlat. Append one
/// node at a time (in arena order), then emit the pools as slabs.
class FlatDirPoolWriter {
 public:
  /// Flattens `dir` and fills the pool fields of `rec` (the caller fills
  /// cell/child/level). Contents come from the canonical sorted getters, so
  /// owned- and flat-mode directories flatten identically.
  template <typename CellT>
  void Append(const NodeDirectory& dir, FlatNodeRec<CellT>* rec) {
    rec->num_children = static_cast<uint16_t>(dir.num_children());
    rec->weight = dir.weight();

    const std::span<const ObjectId> pivots = dir.pivots();
    rec->pivot_begin = pivot_pool_.size();
    rec->pivot_count = static_cast<uint32_t>(pivots.size());
    pivot_pool_.insert(pivot_pool_.end(), pivots.begin(), pivots.end());

    const std::vector<FlatLargeEntry> large = dir.LargeEntriesSorted();
    rec->large_begin = large_pool_.size();
    rec->large_count = static_cast<uint32_t>(large.size());
    large_pool_.insert(large_pool_.end(), large.begin(), large.end());

    for (size_t c = 0; c < dir.num_children(); ++c) {
      const std::vector<uint64_t> keys = dir.ChildTupleKeysSorted(c);
      rec->tuple_begin[c] = tuple_pool_.size();
      rec->tuple_count[c] = static_cast<uint32_t>(keys.size());
      tuple_pool_.insert(tuple_pool_.end(), keys.begin(), keys.end());
    }

    rec->mat_begin = mat_entry_pool_.size();
    rec->mat_count = static_cast<uint32_t>(dir.num_materialized());
    dir.ForEachMaterializedSorted(
        [this](KeywordId w, std::span<const ObjectId> list) {
          mat_entry_pool_.push_back(
              {w, static_cast<uint32_t>(list.size()), mat_obj_pool_.size()});
          mat_obj_pool_.insert(mat_obj_pool_.end(), list.begin(), list.end());
        });
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
  std::vector<ObjectId> pivot_pool_;
  std::vector<FlatLargeEntry> large_pool_;
  std::vector<uint64_t> tuple_pool_;
  std::vector<FlatMatEntry> mat_entry_pool_;
  std::vector<ObjectId> mat_obj_pool_;
};

/// Resolves the shared pools of a mapped container and builds per-node
/// FlatDirViews with range checks. All errors go through the sink; callers
/// on the load path pass AbortingFlatErrorSink().
class FlatDirPoolReader {
 public:
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

  /// Builds the directory view for one node record, checking every pool
  /// range (including each materialized entry's object range — the query
  /// path dereferences those unchecked). Returns false after sinking.
  template <typename CellT>
  bool MakeView(const FlatNodeRec<CellT>& rec, int64_t node,
                FlatDirView* view, const FlatErrorSink& sink) const {
    auto bad = [&](const char* what) {
      sink("node " + std::to_string(node) + ": flat " + what +
           " range out of pool bounds");
      return false;
    };
    if (rec.num_children > FlatDirView::kMaxChildren) {
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

    view->pivots = pivot_pool_.subspan(rec.pivot_begin, rec.pivot_count);
    view->large = large_pool_.subspan(rec.large_begin, rec.large_count);
    view->num_children = rec.num_children;
    for (size_t c = 0; c < rec.num_children; ++c) {
      view->child_tuples[c] =
          tuple_pool_.subspan(rec.tuple_begin[c], rec.tuple_count[c]);
    }
    view->materialized =
        mat_entry_pool_.subspan(rec.mat_begin, rec.mat_count);
    for (const FlatMatEntry& entry : view->materialized) {
      if (!RangeOk(mat_obj_pool_, entry.begin, entry.count))
        return bad("materialized-object");
    }
    view->mat_pool = mat_obj_pool_;
    view->weight = rec.weight;
    return true;
  }

  std::span<const ObjectId> mat_obj_pool() const { return mat_obj_pool_; }

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

/// Shallow structural validation over the node slab only (run on every
/// load): child indices in range and in DFS preorder, levels increase by
/// one, directory ranges inside the pools. Each node's range-checked
/// directory view goes to `on_view(node, view)`: LoadFlat attaches it, so an
/// open builds every view once; the auditor passes a no-op. Of the pools it
/// reads only the materialized entries, so an mmap load faults in little
/// beyond the node records.
template <typename CellT, typename OnView>
bool ValidateFlatTreeShallow(std::span<const FlatNodeRec<CellT>> nodes,
                             const FlatDirPoolReader& pools,
                             const FlatErrorSink& sink, OnView&& on_view) {
  bool ok = true;
  // An empty node slab is legal: an index over an empty corpus has no tree.
  const int64_t n = static_cast<int64_t>(nodes.size());
  for (int64_t i = 0; i < n; ++i) {
    const FlatNodeRec<CellT>& rec = nodes[static_cast<size_t>(i)];
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
      if (nodes[static_cast<size_t>(child)].level != rec.level + 1) {
        sink("node " + std::to_string(i) + ": flat child level skew");
        ok = false;
      }
    }
    FlatDirView view;
    if (pools.MakeView(rec, i, &view, sink)) {
      on_view(static_cast<size_t>(i), view);
    } else {
      ok = false;
    }
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
    FlatDirView view;
    if (!pools.MakeView(rec, i, &view, sink)) {
      ok = false;
      continue;
    }
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
