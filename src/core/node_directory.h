// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// NodeDirectory: the secondary structure T_u of Section 3.2.
//
// For a node u of a transformed tree, the directory answers:
//   * the pivot set D_u^pvt (stored explicitly);
//   * whether a keyword is large at u (and its local id among the large);
//   * whether a k-tuple of large keywords has a non-empty intersection
//     inside a given child (the paper's k-dimensional bit array, realized as
//     the sorted array of the *realized* non-empty tuples — see DESIGN.md,
//     substitution 2);
//   * the materialized list D_u^act(w) for keywords that are small at u but
//     were large at every proper ancestor.
//
// "Large" is evaluated only over keywords that are still *inherited* (large
// at every proper ancestor): a keyword that turned small higher up was
// materialized there and no query can ask about it below, so tracking it
// would waste space without changing any answer.
//
// A directory is a view: sorted spans into the directory pools of its
// index's flat container (core/flat_format.h), whether the index was just
// built or loaded — a build writes the container and attaches it the way a
// load does. DirectoryBuilder emits each node's contents as sorted arrays,
// which FlatDirPoolWriter appends to the pools. The three lookups (large
// keyword, child tuple, materialized list) run one branch-free lower bound
// over their sorted span.

#ifndef KWSC_CORE_NODE_DIRECTORY_H_
#define KWSC_CORE_NODE_DIRECTORY_H_

#include <array>
#include <cstdint>
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

/// A node's directory: sorted spans into the directory pools. The owning
/// index keeps the pools alive for as long as the directory uses the view.
/// The binary families persist two tuple slots per node; SP-KW-HS's four
/// children use all four.
struct FlatDirView {
  static constexpr size_t kMaxChildren = 4;

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
  explicit NodeDirectory(const FlatDirView& view) : view_(view) {}

  /// The objects stored at this node (the paper's D_u^pvt).
  std::span<const ObjectId> pivots() const { return view_.pivots; }

  /// N_u: total document weight of the active set at this node.
  uint64_t weight() const { return view_.weight; }

  /// Number of keywords large (and inherited) at this node.
  size_t num_large() const { return view_.large.size(); }

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

  size_t num_children() const { return view_.num_children; }

  /// Materialized D_u^act(w), or nullopt when w has no list here (either the
  /// materialization condition fails or w does not occur below u).
  std::optional<std::span<const ObjectId>> MaterializedList(KeywordId w) const;

  size_t num_materialized() const { return view_.materialized.size(); }

  size_t NumChildTupleKeys(size_t c) const {
    return view_.child_tuples[c].size();
  }

  bool ChildTupleContainsKey(size_t c, uint64_t key) const;

  /// Invokes fn(keyword, list) for every materialized list in
  /// keyword-ascending order.
  template <typename Fn>
  void ForEachMaterialized(Fn&& fn) const {
    for (const FlatMatEntry& entry : view_.materialized) {
      fn(entry.keyword, view_.mat_pool.subspan(entry.begin, entry.count));
    }
  }

  /// Packs up to k local ids (each < 2^(64/k)) into one 64-bit key. Local id
  /// counts are bounded by N_u^{1/k} <= 2^{64/k}, so the packing always fits.
  static uint64_t EncodeTuple(std::span<const uint32_t> lids);

 private:
  // The invariant auditor's corruption-injection tests re-point the view;
  // see audit/audit_access.h.
  friend struct audit::AuditAccess;

  FlatDirView view_;
};

/// One node's directory as DirectoryBuilder emits it: sorted arrays of the
/// flat slab elements, which FlatDirPoolWriter appends to the pools.
struct DirectoryContents {
  uint64_t weight = 0;
  std::vector<ObjectId> pivots;
  std::vector<FlatLargeEntry> large;  // keyword-ascending; lid = position
  // One array per child: ascending, distinct tuple keys.
  std::vector<std::vector<uint64_t>> child_tuples;
  // Keyword-ascending; each entry's `begin` indexes mat_objects.
  std::vector<FlatMatEntry> materialized;
  std::vector<ObjectId> mat_objects;
};

/// Computes directory contents during index construction. One builder is
/// reused across nodes to amortize scratch allocations.
class DirectoryBuilder {
 public:
  DirectoryBuilder(const Corpus* corpus, FrameworkOptions options)
      : corpus_(corpus), options_(options) {}

  /// Total document weight of `objects`.
  uint64_t WeightOf(std::span<const ObjectId> objects) const;

  /// The directory of a node whose active set is `active` and whose children
  /// have active sets `child_active[0..f)`. `inherited` lists the keywords
  /// large at every proper ancestor in sorted order; nullptr means "all
  /// keywords" (the root). `pivots` are the objects stored at the node.
  /// The result stays valid until the next Build or BuildLeaf.
  ///
  /// On return, `next_inherited` (if non-null) receives the sorted keywords
  /// that are large at this node — the inherited set for the children.
  const DirectoryContents& Build(
      std::span<const ObjectId> active,
      std::span<const std::vector<ObjectId>> child_active,
      const std::vector<KeywordId>* inherited,
      std::span<const ObjectId> pivots,
      std::vector<KeywordId>* next_inherited);

  /// Leaf variant: the whole active set becomes the pivot set and no
  /// large/tuple machinery is needed (the query examines pivots directly).
  const DirectoryContents& BuildLeaf(std::span<const ObjectId> active);

 private:
  const Corpus* corpus_;
  FrameworkOptions options_;
  // Scratch: keyword -> occurrence count within the current active set.
  FlatHashMap<KeywordId, uint32_t> counts_;
  // Scratch: large keyword -> local id.
  FlatHashMap<KeywordId, uint32_t> lids_;
  // Scratch: one child's realized tuple keys, deduplicated.
  FlatHashSet<uint64_t> tuples_;
  // Scratch: (keyword << 32 | active position) per materialized entry.
  std::vector<uint64_t> mat_keys_;
  DirectoryContents out_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_NODE_DIRECTORY_H_
