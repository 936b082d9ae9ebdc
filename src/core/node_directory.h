// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// NodeDirectory: the secondary structure T_u of Section 3.2.
//
// For a node u of a transformed tree, the directory answers in O(1):
//   * the pivot set D_u^pvt (stored explicitly);
//   * whether a keyword is large at u (and its local id among the large);
//   * whether a k-tuple of large keywords has a non-empty intersection
//     inside a given child (the paper's k-dimensional bit array, realized as
//     a hash set of the *realized* non-empty tuples — see DESIGN.md,
//     substitution 2);
//   * the materialized list D_u^act(w) for keywords that are small at u but
//     were large at every proper ancestor.
//
// "Large" is evaluated only over keywords that are still *inherited* (large
// at every proper ancestor): a keyword that turned small higher up was
// materialized there and no query can ask about it below, so tracking it
// would waste space without changing any answer.
//
// The directory runs in one of two modes:
//   * owned — hash tables and vectors built by DirectoryBuilder;
//   * flat — sorted spans into the memory-mapped slabs of a v2 flat
//     container (AttachFlat). Lookups switch from hashing to binary search
//     over the canonical sorted order; nothing is copied off the mapping.
// Query and save paths are mode-agnostic, so a flat-loaded index answers
// identically and re-saves to byte-identical flat bytes.

#ifndef KWSC_CORE_NODE_DIRECTORY_H_
#define KWSC_CORE_NODE_DIRECTORY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/abi.h"
#include "common/flat_hash.h"
#include "core/framework.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

/// One large-keyword table entry in canonical (keyword-ascending) order:
/// the v2 flat slab element.
struct FlatLargeEntry {
  KeywordId keyword;
  uint32_t lid;
};
static_assert(sizeof(FlatLargeEntry) == 8, "no padding allowed in slabs");
KWSC_ABI_STRUCT(FlatLargeEntry);

/// One materialized list D_u^act(w) in the flat layout: `count` ObjectIds
/// starting at `begin` in the shared materialized-object pool.
struct FlatMatEntry {
  KeywordId keyword;
  uint32_t count;
  uint64_t begin;
};
static_assert(sizeof(FlatMatEntry) == 16, "no padding allowed in slabs");
KWSC_ABI_STRUCT(FlatMatEntry);

/// Flat-mode directory contents: sorted spans into mapped slabs. The owning
/// index keeps the backing MmapFile alive for as long as the directory uses
/// the view. Flat persistence currently covers the binary families only.
struct FlatDirView {
  static constexpr size_t kMaxChildren = 2;

  std::span<const ObjectId> pivots;
  std::span<const FlatLargeEntry> large;  // sorted by keyword
  std::array<std::span<const uint64_t>, kMaxChildren>
      child_tuples;                       // sorted tuple keys per child
  std::span<const FlatMatEntry> materialized;  // sorted by keyword
  std::span<const ObjectId> mat_pool;     // pool the entries index into
  uint32_t num_children = 0;
  uint64_t weight = 0;
};

class NodeDirectory {
 public:
  NodeDirectory() = default;

  /// The objects stored at this node (the paper's D_u^pvt).
  std::span<const ObjectId> pivots() const {
    return flat_mode_ ? flat_.pivots : std::span<const ObjectId>(pivots_);
  }

  /// N_u: total document weight of the active set at this node.
  uint64_t weight() const { return flat_mode_ ? flat_.weight : weight_; }

  /// Number of keywords large (and inherited) at this node.
  size_t num_large() const {
    return flat_mode_ ? flat_.large.size() : large_.size();
  }

  /// Local id of `w` among the large keywords, or -1 if w is small/absent.
  int64_t LargeId(KeywordId w) const;

  /// Resolves all query keywords to local large ids. Returns true iff every
  /// keyword is large at this node; on false, *small_keyword is set to the
  /// first keyword that is not large. `lids` receives the ids in the order
  /// of `sorted_keywords` (which is increasing, so lids are canonical too —
  /// local ids are assigned in increasing keyword order).
  bool ResolveLarge(std::span<const KeywordId> sorted_keywords, uint32_t* lids,
                    KeywordId* small_keyword) const;

  /// True iff the k-tuple of large keywords (given by canonical local ids)
  /// has a non-empty intersection within child `child`.
  bool ChildTupleNonEmpty(size_t child, std::span<const uint32_t> lids) const {
    return ChildTupleContainsKey(child, EncodeTuple(lids));
  }

  size_t num_children() const {
    return flat_mode_ ? flat_.num_children : child_tuples_.size();
  }

  /// Materialized D_u^act(w), or nullopt when w has no list here (either the
  /// materialization condition fails or w does not occur below u).
  std::optional<std::span<const ObjectId>> MaterializedList(KeywordId w) const;

  // ---- Mode-agnostic iteration (save path, auditor) ----
  //
  // Owned-mode hash iteration order is seeded per-process, so these
  // canonicalize to keyword/key-ascending order; flat mode stores exactly
  // that order already. FlatDirPoolWriter (core/flat_format.h) is built on
  // them, which is what makes a flat-loaded index re-save byte-identically.

  size_t num_materialized() const {
    return flat_mode_ ? flat_.materialized.size() : materialized_.size();
  }

  /// Large-keyword table in keyword-ascending order.
  std::vector<FlatLargeEntry> LargeEntriesSorted() const;

  /// Tuple-registry keys of child `c` in ascending order.
  std::vector<uint64_t> ChildTupleKeysSorted(size_t c) const;

  size_t NumChildTupleKeys(size_t c) const {
    return flat_mode_ ? flat_.child_tuples[c].size() : child_tuples_[c].size();
  }

  bool ChildTupleContainsKey(size_t c, uint64_t key) const;

  /// Invokes fn(keyword, list) for every materialized list in
  /// keyword-ascending order.
  template <typename Fn>
  void ForEachMaterializedSorted(Fn&& fn) const {
    if (flat_mode_) {
      for (const FlatMatEntry& entry : flat_.materialized) {
        fn(entry.keyword, flat_.mat_pool.subspan(entry.begin, entry.count));
      }
      return;
    }
    std::vector<KeywordId> keywords = OwnedMaterializedKeywordsSorted();
    for (KeywordId w : keywords) {
      const std::vector<ObjectId>* list = materialized_.Find(w);
      fn(w, std::span<const ObjectId>(*list));
    }
  }

  size_t MemoryBytes() const;

  /// Switches to flat mode over `view` (spans into a mapped v2 container).
  /// Owned storage is released; the caller guarantees the backing bytes
  /// outlive this directory.
  void AttachFlat(const FlatDirView& view);

  bool flat_mode() const { return flat_mode_; }

  /// Packs up to k local ids (each < 2^(64/k)) into one 64-bit key. Local id
  /// counts are bounded by N_u^{1/k} <= 2^{64/k}, so the packing always fits.
  static uint64_t EncodeTuple(std::span<const uint32_t> lids);

 private:
  friend class DirectoryBuilder;
  // The invariant auditor's corruption-injection tests mutate the owned
  // tables directly; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  std::vector<KeywordId> OwnedMaterializedKeywordsSorted() const;

  std::vector<ObjectId> pivots_;
  FlatHashMap<KeywordId, uint32_t> large_;
  std::vector<FlatHashSet<uint64_t>> child_tuples_;
  FlatHashMap<KeywordId, std::vector<ObjectId>> materialized_;
  uint64_t weight_ = 0;

  bool flat_mode_ = false;
  FlatDirView flat_;
};

/// Builds NodeDirectory contents during index construction. One builder is
/// reused across nodes to amortize scratch allocations.
class DirectoryBuilder {
 public:
  DirectoryBuilder(const Corpus* corpus, FrameworkOptions options)
      : corpus_(corpus), options_(options) {}

  /// Total document weight of `objects`.
  uint64_t WeightOf(std::span<const ObjectId> objects) const;

  /// Populates `dir` for a node whose active set is `active` and whose
  /// children have active sets `child_active[0..f)`. `inherited` lists the
  /// keywords large at every proper ancestor in sorted order; nullptr means
  /// "all keywords" (the root). `pivots` are the objects stored at the node.
  ///
  /// On return, `next_inherited` (if non-null) receives the sorted keywords
  /// that are large at this node — the inherited set for the children.
  void Build(std::span<const ObjectId> active,
             std::span<const std::vector<ObjectId>> child_active,
             const std::vector<KeywordId>* inherited,
             std::vector<ObjectId> pivots, NodeDirectory* dir,
             std::vector<KeywordId>* next_inherited);

  /// Leaf variant: the whole active set becomes the pivot set and no
  /// large/tuple machinery is needed (the query examines pivots directly).
  void BuildLeaf(std::span<const ObjectId> active, NodeDirectory* dir);

 private:
  const Corpus* corpus_;
  FrameworkOptions options_;
  // Scratch: keyword -> occurrence count within the current active set.
  FlatHashMap<KeywordId, uint32_t> counts_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_NODE_DIRECTORY_H_
