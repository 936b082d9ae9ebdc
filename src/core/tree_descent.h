// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The query of Section 3.3, written once for every transformed tree: ORP-KW's
// kd-tree over rank space, SP-KW's box-cell tree, and SP-KW's ham-sandwich
// partition tree (Appendix D.2–D.3 give the partition-tree form). Only the
// substrate's tests differ.
//
// From the root, a visit examines the node's pivot set. While every query
// keyword is large, it descends into each child whose tuple registry holds
// the query's k-tuple and whose cell meets the query region. At the first
// node where a keyword w is small it scans w's materialized list D_u^act(w),
// fewer than N_u^{1-1/k} entries, and stops; with the lists ablated (A2) it
// scans the node's subtree instead, pruning by geometry only.
//
// The tree is a span of node records in DFS preorder, root first, each with
// a `cell`, `child` slots (-1 when absent) and its directory's pool fields:
// FlatNodeRec read in place from the container, or SP-KW-HS's records. A
// visit resolves only the directory ranges it reads, unchecked: the attach
// checked every record once (CheckFlatNodes, core/flat_format.h).

#ifndef KWSC_CORE_TREE_DESCENT_H_
#define KWSC_CORE_TREE_DESCENT_H_

#include <cstdint>
#include <iterator>
#include <span>

#include "common/macros.h"
#include "common/ops_budget.h"
#include "core/flat_format.h"
#include "core/framework.h"
#include "core/node_directory.h"
#include "text/corpus.h"

namespace kwsc {

namespace tree_descent_internal {

template <typename Rec, typename Covers, typename Misses, typename Matches,
          typename Emit>
struct Descent {
  std::span<const Rec> nodes;
  const FlatDirPoolReader& pools;
  const Corpus& corpus;
  const FrameworkOptions& options;
  std::span<const KeywordId> kws;
  Covers covers;
  Misses misses;
  Matches matches;
  Emit& emit;
  QueryStats* stats;
  OpsBudget* budget;

  // Each returns false once the query must stop: `emit` declined, or the
  // budget ran out.
  bool Visit(uint32_t index) const {
    const Rec& node = nodes[index];
    const bool covered = covers(node.cell);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      covered ? ++stats->covered_nodes : ++stats->crossing_nodes;
    }
    if (!budget->Charge()) return Exhaust();

    for (ObjectId e : pools.Pivots(node)) {
      if (!budget->Charge()) return Exhaust();
      if (stats != nullptr) {
        ++stats->pivot_checks;
        covered ? ++stats->covered_work : ++stats->crossing_work;
      }
      if (!Examine(e)) return false;
    }
    if (IsLeaf(node)) return true;

    uint32_t lids[kMaxQueryKeywords];
    KeywordId small_keyword = 0;
    if (!ResolveLarge(pools.Large(node), kws, lids, &small_keyword)) {
      return options.enable_materialized_lists
                 ? ScanList(node, small_keyword, covered)
                 : ScanSubtree(index);
    }

    // The query's k-tuple, probed in each child's registry.
    const uint64_t tuple = EncodeTuple({lids, kws.size()});
    for (size_t c = 0; c < std::size(node.child); ++c) {
      const int32_t child = node.child[c];
      if (child < 0) continue;
      // Pull the child's record while the tuple registry is probed; the
      // cell test and the visit read it a few instructions later.
      KWSC_PREFETCH(&nodes[child]);
      if (options.enable_tuple_pruning &&
          !ContainsTupleKey(pools.ChildTuples(node, c), tuple)) {
        if (stats != nullptr) ++stats->tuple_pruned;
        continue;
      }
      if (misses(nodes[child].cell)) {
        if (stats != nullptr) ++stats->geom_pruned;
        continue;
      }
      if (!Visit(static_cast<uint32_t>(child))) return false;
    }
    return true;
  }

  // The last step below a node where `small_keyword` is small: its
  // materialized list holds every candidate left.
  bool ScanList(const Rec& node, KeywordId small_keyword, bool covered) const {
    const FlatMatEntry* list =
        FindMaterialized(pools.Materialized(node), small_keyword);
    if (list == nullptr) return true;  // Keyword absent below this node.
    for (ObjectId e : pools.Objects(*list)) {
      if (!budget->Charge()) return Exhaust();
      if (stats != nullptr) {
        ++stats->list_scanned;
        covered ? ++stats->covered_work : ++stats->crossing_work;
      }
      if (!Examine(e)) return false;
    }
    return true;
  }

  // The lists' ablation (A2): every pivot below the node, pruned by
  // geometry only.
  bool ScanSubtree(uint32_t index) const {
    for (const int32_t child : nodes[index].child) {
      if (child < 0) continue;
      KWSC_PREFETCH(&nodes[child]);
      if (misses(nodes[child].cell)) continue;
      for (ObjectId e : pools.Pivots(nodes[child])) {
        if (!budget->Charge()) return Exhaust();
        if (stats != nullptr) ++stats->list_scanned;
        if (!Examine(e)) return false;
      }
      if (!ScanSubtree(static_cast<uint32_t>(child))) return false;
    }
    return true;
  }

  // One candidate of a pivot or list scan: the object test, then the
  // keyword check.
  KWSC_ALWAYS_INLINE bool Examine(ObjectId e) const {
    if (!matches(e) || !corpus.ContainsAll(e, kws)) return true;
    if (stats != nullptr) ++stats->results;
    return emit(e);
  }

  bool Exhaust() const {
    if (stats != nullptr) stats->budget_exhausted = true;
    return false;
  }
};

}  // namespace tree_descent_internal

/// Reports, through `emit`, every object of the tree `nodes` (directory
/// pools `pools`) that passes `matches` and whose document in `corpus`
/// holds every keyword of `kws` (sorted, distinct), in descent order, until
/// `emit` returns false. The family's substrate tests:
///   covers(cell)  — the cell lies inside the query region (it only splits
///                   the statistics into covered and crossing work);
///   misses(cell)  — the cell is disjoint from the query region (the child
///                   is pruned);
///   matches(e)    — object e's geometry satisfies the query.
/// A null `budget` is unlimited; exhausting it stops the query and sets
/// stats->budget_exhausted.
template <typename Rec, typename Covers, typename Misses, typename Matches,
          typename Emit>
void DescendTree(std::span<const Rec> nodes, const FlatDirPoolReader& pools,
                 const Corpus& corpus, const FrameworkOptions& options,
                 std::span<const KeywordId> kws, Covers covers, Misses misses,
                 Matches matches, Emit& emit, QueryStats* stats,
                 OpsBudget* budget) {
  if (nodes.empty()) return;
  OpsBudget unlimited;
  const tree_descent_internal::Descent<Rec, Covers, Misses, Matches, Emit>
      descent{nodes,   pools,  corpus, options, kws,
              covers,  misses, matches, emit,   stats,
              budget != nullptr ? budget : &unlimited};
  descent.Visit(0);
}

}  // namespace kwsc

#endif  // KWSC_CORE_TREE_DESCENT_H_
