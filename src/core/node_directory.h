// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The node directory: the secondary structure T_u of Section 3.2.
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
// A directory is sorted spans into the directory pools of its index's flat
// container (core/flat_format.h), whether the index was just built or
// loaded — a build writes the container and attaches it the way a load
// does. DirectoryBuilder emits each node's contents as sorted arrays, which
// FlatDirPoolWriter appends to the pools. The three lookups (large keyword,
// child tuple, materialized list) run one branch-free lower bound over one
// sorted span each, the spans a reader takes from a node record in place:
// the query (core/tree_descent.h) and the auditor call the same functions.

#ifndef KWSC_CORE_NODE_DIRECTORY_H_
#define KWSC_CORE_NODE_DIRECTORY_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/abi.h"
#include "common/flat_hash.h"
#include "core/framework.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

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
/// index keeps the pools alive for as long as anything uses the view.
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

/// Resolves all query keywords to local ids in the large table `large`.
/// Returns true iff every keyword is large; on false, *small_keyword is set
/// to the first keyword that is not. `lids` receives the ids in the order
/// of `sorted_keywords` (which is increasing, so lids are canonical too —
/// local ids are assigned in increasing keyword order).
bool ResolveLarge(std::span<const FlatLargeEntry> large,
                  std::span<const KeywordId> sorted_keywords, uint32_t* lids,
                  KeywordId* small_keyword);

/// The entry of `w` among a node's materialized entries, or nullptr when w
/// has no list there (the materialization condition fails or w does not
/// occur below the node).
const FlatMatEntry* FindMaterialized(std::span<const FlatMatEntry> materialized,
                                     KeywordId w);

/// True iff one child's registry `keys` holds the tuple key `key`.
bool ContainsTupleKey(std::span<const uint64_t> keys, uint64_t key);

/// Packs up to k local ids (each < 2^(64/k)) into one 64-bit key. Local id
/// counts are bounded by N_u^{1/k} <= 2^{64/k}, so the packing always fits.
uint64_t EncodeTuple(std::span<const uint32_t> lids);

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
