// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// IndexAuditor: mechanized verification of the paper's structural invariants
// on a *built* index (see DESIGN.md and EXPERIMENTS.md, "Verification
// ladder"). Every AuditIndex overload walks the raw nodes of one index family
// (for ORP-KW and SP-KW-Box, the node records in their container) and
// recomputes, from the corpus and the geometry alone, what each node must
// contain:
//
//   * OrpKwIndex (Theorem 1): kd-substrate tree well-formedness, rank-space
//     cell derivation, pivot partition, weight halving, directory recounts,
//     rank permutations, serialization round trip;
//   * SpKwBoxIndex (Appendix D): same framework checks over original-space
//     box cells with shared split boundaries;
//   * DimRedOrpKwIndex (Theorem 2): the fanout schedule f_u = 2*2^(k^level),
//     f-balanced weight quotas, sigma(u) tightness, separator placement,
//     sub-corpus/id_map consistency, and a recursive audit of every
//     secondary index;
//   * RrKwIndex (Corollary 3): delegates to its lifted engine;
//   * KdTree / IntervalTree substrates: bounding-volume tightness and
//     partition checks for the baseline structures.
//
// The auditor is pure observation: it never mutates an index and reports
// through AuditReport instead of aborting, so tests can assert that a
// *specific* injected corruption is caught as the right violation class.

#ifndef KWSC_AUDIT_INDEX_AUDITOR_H_
#define KWSC_AUDIT_INDEX_AUDITOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "audit/audit.h"
#include "audit/audit_access.h"
#include "common/flat_arena.h"
#include "common/flat_hash.h"
#include "core/balanced_cut.h"
#include "core/dim_reduction.h"
#include "core/dynamic_index.h"
#include "core/framework.h"
#include "core/node_directory.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "kdtree/interval_tree.h"
#include "kdtree/kd_tree.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {
namespace audit {

// Overloads are declared up front because they recurse into one another: a
// DimRedOrpKwIndex<D> audits its per-node secondary, which is either
// OrpKwIndex<2> or DimRedOrpKwIndex<D - 1>.
template <int D, typename Scalar>
AuditReport AuditIndex(const OrpKwIndex<D, Scalar>& index,
                       const AuditOptions& options = AuditOptions());
template <int D, typename Scalar>
AuditReport AuditIndex(const DimRedOrpKwIndex<D, Scalar>& index,
                       const AuditOptions& options = AuditOptions());
template <int D, typename Scalar>
AuditReport AuditIndex(const SpKwBoxIndex<D, Scalar>& index,
                       const AuditOptions& options = AuditOptions());
template <int D, typename Scalar>
AuditReport AuditIndex(const RrKwIndex<D, Scalar>& index,
                       const AuditOptions& options = AuditOptions());
template <typename Family>
AuditReport AuditIndex(const DynamicIndex<Family>& index,
                       const AuditOptions& options = AuditOptions());

namespace internal_auditor {

/// Smallest b with 2^b >= v.
inline int CeilLog2(uint64_t v) {
  int bits = 0;
  while (bits < 63 && (uint64_t{1} << bits) < v) ++bits;
  return bits;
}

inline uint64_t WeightOf(const Corpus& corpus,
                         std::span<const ObjectId> objects) {
  uint64_t total = 0;
  for (ObjectId e : objects) total += corpus.doc(e).size();
  return total;
}

/// k-combination enumeration, mirroring the DirectoryBuilder's (which lives
/// in an anonymous namespace — an intentional reimplementation, so the audit
/// does not share code with the machinery it verifies).
template <typename Fn>
void ForEachCombination(std::span<const uint32_t> sorted_lids, int k,
                        Fn&& fn) {
  const int n = static_cast<int>(sorted_lids.size());
  if (n < k) return;
  std::vector<uint32_t> combo(static_cast<size_t>(k));
  std::vector<int> idx(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) idx[static_cast<size_t>(i)] = i;
  while (true) {
    for (int i = 0; i < k; ++i) {
      combo[static_cast<size_t>(i)] =
          sorted_lids[static_cast<size_t>(idx[static_cast<size_t>(i)])];
    }
    fn(std::span<const uint32_t>(combo));
    int pos = k - 1;
    while (pos >= 0 && idx[static_cast<size_t>(pos)] == n - k + pos) --pos;
    if (pos < 0) break;
    ++idx[static_cast<size_t>(pos)];
    for (int i = pos + 1; i < k; ++i) {
      idx[static_cast<size_t>(i)] = idx[static_cast<size_t>(i - 1)] + 1;
    }
  }
}

/// Recomputes one internal node's directory from scratch — occurrence
/// counts of inherited keywords over the active set, the N_u^alpha
/// classification, materialized lists, per-child tuple registries — and
/// compares against the stored directory. Returns the recomputed large set
/// (sorted), which is the inherited set for the node's children.
inline std::vector<KeywordId> CheckNodeDirectory(
    const Corpus& corpus, const FrameworkOptions& options,
    std::span<const ObjectId> active,
    std::span<const std::vector<ObjectId>* const> child_active,
    const std::vector<KeywordId>* inherited, const FlatDirView& dir,
    int64_t node, AuditReport* report) {
  const auto is_inherited = [inherited](KeywordId w) {
    return inherited == nullptr ||
           std::binary_search(inherited->begin(), inherited->end(), w);
  };

  FlatHashMap<KeywordId, uint32_t> counts;
  uint64_t weight = 0;
  for (ObjectId e : active) {
    const DocumentView doc = corpus.doc(e);
    weight += doc.size();
    for (KeywordId w : doc) {
      if (is_inherited(w)) ++counts[w];
    }
  }

  const double threshold = LargeThreshold(weight, options.EffectiveAlpha());
  std::vector<KeywordId> larges;
  counts.ForEach([&larges, threshold](KeywordId w, uint32_t count) {
    if (static_cast<double>(count) >= threshold) larges.push_back(w);
  });
  std::sort(larges.begin(), larges.end());

  // Large table: same key set, local ids assigned in increasing keyword
  // order (the canonical-lid contract EncodeTuple relies on).
  if (dir.large.size() != larges.size()) {
    report->Add(AuditCheck::kDirectoryLarge, node,
                "large table holds %zu keywords, recount finds %zu",
                dir.large.size(), larges.size());
  }
  for (size_t lid = 0; lid < larges.size(); ++lid) {
    uint32_t stored = 0;
    KeywordId small = 0;
    const bool large =
        ResolveLarge(dir.large, {&larges[lid], 1}, &stored, &small);
    if (!large || stored != lid) {
      report->Add(AuditCheck::kDirectoryLarge, node,
                  "keyword %u has lid %lld, expected %zu", larges[lid],
                  large ? static_cast<long long>(stored) : -1LL, lid);
    }
  }

  // Materialized lists: exactly the keywords that are inherited, occur below
  // u, and fall short of the threshold; each list is the non-pivot carriers.
  // All reads go through the query's lookups.
  if (options.enable_materialized_lists) {
    FlatHashMap<KeywordId, std::vector<ObjectId>> expected;
    const std::span<const ObjectId> pivots = dir.pivots;
    for (ObjectId e : active) {
      if (std::find(pivots.begin(), pivots.end(), e) != pivots.end()) {
        continue;
      }
      for (KeywordId w : corpus.doc(e)) {
        const uint32_t* count = counts.Find(w);
        if (count != nullptr && static_cast<double>(*count) < threshold) {
          expected[w].push_back(e);
        }
      }
    }
    if (dir.materialized.size() != expected.size()) {
      report->Add(AuditCheck::kDirectoryMaterialized, node,
                  "%zu materialized lists, recount expects %zu",
                  dir.materialized.size(), expected.size());
    }
    expected.ForEach([&](KeywordId w, const std::vector<ObjectId>& list) {
      const FlatMatEntry* got = FindMaterialized(dir.materialized, w);
      if (got == nullptr) {
        report->Add(AuditCheck::kDirectoryMaterialized, node,
                    "missing materialized list for keyword %u", w);
        return;
      }
      const auto stored = dir.mat_pool.subspan(got->begin, got->count);
      std::vector<ObjectId> want(list);
      std::vector<ObjectId> have(stored.begin(), stored.end());
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
      if (want != have) {
        report->Add(AuditCheck::kDirectoryMaterialized, node,
                    "materialized list for keyword %u disagrees with the "
                    "recount (%zu stored vs %zu expected entries)",
                    w, have.size(), want.size());
      }
    });
    for (const FlatMatEntry& entry : dir.materialized) {
      if (expected.Find(entry.keyword) == nullptr) {
        report->Add(AuditCheck::kDirectoryMaterialized, node,
                    "unexpected materialized list for keyword %u",
                    entry.keyword);
      }
    }
  } else if (!dir.materialized.empty()) {
    report->Add(AuditCheck::kDirectoryMaterialized, node,
                "materialized lists present although disabled by options");
  }

  // Per-child tuple registries: a k-tuple of large keywords is registered
  // for child c iff some object in c's active set carries all k keywords.
  if (dir.num_children != child_active.size()) {
    report->Add(AuditCheck::kDirectoryTuples, node,
                "%u child registries for %zu children", dir.num_children,
                child_active.size());
  } else if (options.enable_tuple_pruning) {
    std::vector<uint32_t> doc_lids;
    for (size_t c = 0; c < child_active.size(); ++c) {
      FlatHashSet<uint64_t> expected_tuples;
      for (ObjectId e : *child_active[c]) {
        doc_lids.clear();
        for (KeywordId w : corpus.doc(e)) {
          const auto it = std::lower_bound(larges.begin(), larges.end(), w);
          if (it != larges.end() && *it == w) {
            doc_lids.push_back(static_cast<uint32_t>(it - larges.begin()));
          }
        }
        ForEachCombination(doc_lids, options.k,
                           [&expected_tuples](std::span<const uint32_t> t) {
                             expected_tuples.Insert(EncodeTuple(t));
                           });
      }
      if (dir.child_tuples[c].size() != expected_tuples.size()) {
        report->Add(AuditCheck::kDirectoryTuples, node,
                    "child %zu registry holds %zu tuples, recount finds %zu",
                    c, dir.child_tuples[c].size(), expected_tuples.size());
      }
      bool missing = false;
      expected_tuples.ForEach([&](uint64_t key) {
        if (!ContainsTupleKey(dir.child_tuples[c], key)) missing = true;
      });
      if (missing) {
        report->Add(AuditCheck::kDirectoryTuples, node,
                    "child %zu registry omits a realized non-empty tuple", c);
      }
    }
  } else {
    for (size_t c = 0; c < dir.num_children; ++c) {
      if (!dir.child_tuples[c].empty()) {
        report->Add(AuditCheck::kDirectoryTuples, node,
                    "child %zu registry non-empty although tuple pruning is "
                    "disabled",
                    c);
      }
    }
  }
  return larges;
}

/// SaveFlat -> LoadFlat -> SaveFlat must reproduce the first container
/// exactly (the determinism contract parallel builds and fingerprints rely
/// on, and the proof that a loaded index is the built index).
template <typename Index>
void CheckSerializationRoundTrip(const Index& index, const Corpus& corpus,
                                 AuditReport* report) {
  std::ostringstream first_stream;
  index.SaveFlat(&first_stream);
  const std::string first = first_stream.str();
  const Index loaded = Index::LoadFlat(MmapFile::FromBytes(first), &corpus);
  std::ostringstream second_stream;
  loaded.SaveFlat(&second_stream);
  if (second_stream.str() != first) {
    report->Add(AuditCheck::kSerialization, -1,
                "flat save/load/save round trip is not byte-identical "
                "(%zu vs %zu bytes)",
                first.size(), second_stream.str().size());
  }
}

/// Shared audit for the two binary transformed trees — OrpKwIndex (rank
/// space, pivot excluded from both child cells) and SpKwBoxIndex (original
/// space, children share the split plane). Both read FlatNodeRec records in
/// place; the cell-derivation rule is the only difference, selected by
/// kSharedBoundary.
template <int D, typename Scalar, typename Index, bool kSharedBoundary>
class FrameworkTreeAuditor {
 public:
  FrameworkTreeAuditor(const Index& index, const AuditOptions& audit_options,
                       AuditReport* report)
      : index_(index),
        nodes_(AuditAccess::Nodes(index)),
        corpus_(*AuditAccess::CorpusOf(index)),
        options_(AuditAccess::Options(index)),
        audit_options_(audit_options),
        report_(report) {}

  void Run() {
    const size_t n = corpus_.num_objects();
    if (nodes_.empty()) {
      if (n > 0) {
        report_->Add(AuditCheck::kPartitionCoverage, -1,
                     "index has no nodes but the corpus has %zu objects", n);
      }
      return;
    }
    seen_.assign(n, 0);
    referenced_.assign(nodes_.size(), 0);
    actives_.assign(nodes_.size(), {});

    using CellT = std::remove_cvref_t<decltype(nodes_[0].cell)>;
    if (!(nodes_[0].cell == CellT::Everything())) {
      report_->Add(AuditCheck::kCellGeometry, 0,
                   "root cell is not the whole space");
    }
    CollectNode(0, /*expected_level=*/0);

    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (referenced_[i] == 0) {
        report_->Add(AuditCheck::kTreeStructure, static_cast<int64_t>(i),
                     "node unreachable from the root");
      }
    }
    for (size_t e = 0; e < n; ++e) {
      if (seen_[e] == 0) {
        report_->Add(AuditCheck::kPartitionCoverage, -1,
                     "object %zu appears in no pivot set", e);
      }
    }
    report_->objects_checked += n;

    // Depth: every split halves the verbose-set weight or the cardinality
    // (WeightedMedianIndex contract), so root-to-leaf paths are bounded by
    // log2(W) + log2(n) steps.
    const int depth_bound =
        CeilLog2(std::max<uint64_t>(corpus_.total_weight(), 2)) +
        CeilLog2(std::max<uint64_t>(n, 2)) + 2;
    if (max_level_ > depth_bound) {
      report_->Add(AuditCheck::kDepthBound, -1,
                   "tree depth %d exceeds the O(log N + log W) bound %d",
                   max_level_, depth_bound);
    }

    // Space: pivot sets partition the objects and every node stores at least
    // one pivot, so the tree has at most n nodes; each (object, keyword)
    // pair materializes at most once along its root-to-leaf path, so the
    // materialized-list total is at most N (Theorem 1's linear space).
    if (nodes_.size() > n) {
      report_->Add(AuditCheck::kSpaceBound, -1,
                   "%zu nodes for %zu objects breaks linear-space accounting",
                   nodes_.size(), n);
    }
    if (materialized_total_ > corpus_.total_weight()) {
      report_->Add(AuditCheck::kSpaceBound, -1,
                   "materialized lists hold %llu entries, more than N = %llu",
                   static_cast<unsigned long long>(materialized_total_),
                   static_cast<unsigned long long>(corpus_.total_weight()));
    }

    if (audit_options_.check_directories) {
      CheckDirectories(0, /*inherited=*/nullptr);
    }
  }

 private:
  decltype(auto) PointOf(ObjectId e) const {
    if constexpr (kSharedBoundary) {
      return AuditAccess::Points(index_)[e];
    } else {
      return AuditAccess::RankPoints(index_)[e];
    }
  }

  // Bottom-up pass: marks pivots, verifies tree shape, cell derivation, and
  // weight accounting, and records each node's active set (sorted by id) for
  // the top-down directory pass.
  void CollectNode(uint32_t idx, int expected_level) {
    const auto& node = nodes_[idx];
    const FlatDirView dir = AuditAccess::Directory(index_, node);
    ++report_->nodes_checked;
    max_level_ = std::max(max_level_, expected_level);
    if (static_cast<int>(node.level) != expected_level) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "node level %d, DFS depth says %d",
                   static_cast<int>(node.level), expected_level);
    }

    const std::span<const ObjectId> pivots = dir.pivots;
    for (ObjectId e : pivots) {
      if (static_cast<size_t>(e) >= seen_.size()) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "pivot id %u out of range", e);
        continue;
      }
      if (seen_[e]++ != 0) {
        report_->Add(AuditCheck::kPartitionDisjoint, idx,
                     "object %u stored in more than one pivot set", e);
      }
      if (!node.cell.Contains(PointOf(e))) {
        report_->Add(AuditCheck::kCellGeometry, idx,
                     "pivot %u lies outside its node's cell", e);
      }
    }
    for (const FlatMatEntry& entry : dir.materialized) {
      materialized_total_ += entry.count;
    }

    std::vector<ObjectId>& active = actives_[idx];
    if (IsLeaf(node)) {
      if (pivots.size() > static_cast<size_t>(options_.leaf_objects)) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "leaf holds %zu objects, leaf_objects = %d",
                     pivots.size(), options_.leaf_objects);
      }
      if (!dir.large.empty()) {
        report_->Add(AuditCheck::kDirectoryLarge, idx,
                     "leaf carries a large-keyword table");
      }
      if (dir.num_children != 0) {
        report_->Add(AuditCheck::kDirectoryTuples, idx,
                     "leaf carries child tuple registries");
      }
      if (!dir.materialized.empty()) {
        report_->Add(AuditCheck::kDirectoryMaterialized, idx,
                     "leaf carries materialized lists");
      }
      for (ObjectId e : pivots) {
        if (static_cast<size_t>(e) < seen_.size()) active.push_back(e);
      }
      std::sort(active.begin(), active.end());
      if (dir.weight != WeightOf(corpus_, active)) {
        report_->Add(AuditCheck::kWeightAccounting, idx,
                     "leaf weight %llu, recount finds %llu",
                     static_cast<unsigned long long>(dir.weight),
                     static_cast<unsigned long long>(
                         WeightOf(corpus_, active)));
      }
      return;
    }

    if (pivots.size() != 1) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "internal node stores %zu pivots, expected exactly 1",
                   pivots.size());
    }

    // Children: in-range, DFS preorder (first child immediately follows the
    // parent — the layout parallel builds must reproduce), referenced once.
    bool have_valid_child[2] = {false, false};
    bool first = true;
    for (int c = 0; c < 2; ++c) {
      const int32_t child = node.child[c];
      if (child < 0) continue;
      if (child <= static_cast<int32_t>(idx) ||
          child >= static_cast<int32_t>(nodes_.size())) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "child slot %d holds invalid index %d", c, child);
        continue;
      }
      if (first && child != static_cast<int32_t>(idx) + 1) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "first child %d breaks DFS preorder", child);
      }
      first = false;
      if (referenced_[static_cast<size_t>(child)]++ != 0) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "node %d referenced more than once", child);
        continue;
      }
      have_valid_child[c] = true;
      CollectNode(static_cast<uint32_t>(child), expected_level + 1);
    }

    // Cell derivation: the split coordinate comes from the pivot on the
    // level's dimension. Rank substrate excludes the pivot's coordinate from
    // both children; the box substrate shares the split plane.
    const int dim = expected_level % D;
    if (pivots.size() == 1 && static_cast<size_t>(pivots[0]) < seen_.size()) {
      const auto split = PointOf(pivots[0])[dim];
      auto expect_left = node.cell;
      auto expect_right = node.cell;
      if constexpr (kSharedBoundary) {
        expect_left.hi[dim] = split;
        expect_right.lo[dim] = split;
      } else {
        expect_left.hi[dim] = split - 1;
        expect_right.lo[dim] = split + 1;
      }
      if (have_valid_child[0] &&
          !(nodes_[static_cast<size_t>(node.child[0])].cell == expect_left)) {
        report_->Add(AuditCheck::kCellGeometry, idx,
                     "left child cell is not derived from the split");
      }
      if (have_valid_child[1] &&
          !(nodes_[static_cast<size_t>(node.child[1])].cell == expect_right)) {
        report_->Add(AuditCheck::kCellGeometry, idx,
                     "right child cell is not derived from the split");
      }
    }

    // Active set = pivot plus both child subtrees' objects.
    size_t total = pivots.size();
    for (int c = 0; c < 2; ++c) {
      if (have_valid_child[c]) {
        total += actives_[static_cast<size_t>(node.child[c])].size();
      }
    }
    active.reserve(total);
    for (ObjectId e : pivots) {
      if (static_cast<size_t>(e) < seen_.size()) active.push_back(e);
    }
    for (int c = 0; c < 2; ++c) {
      if (!have_valid_child[c]) continue;
      const std::vector<ObjectId>& sub =
          actives_[static_cast<size_t>(node.child[c])];
      active.insert(active.end(), sub.begin(), sub.end());
    }
    std::sort(active.begin(), active.end());

    // Weight accounting: the directory's N_u is the recomputed verbose-set
    // weight, and each split halves weight or cardinality (the degenerate
    // fallback of WeightedMedianIndex halves cardinality instead).
    const uint64_t node_weight = WeightOf(corpus_, active);
    if (dir.weight != node_weight) {
      report_->Add(AuditCheck::kWeightAccounting, idx,
                   "directory weight %llu, recount finds %llu",
                   static_cast<unsigned long long>(dir.weight),
                   static_cast<unsigned long long>(node_weight));
    }
    for (int c = 0; c < 2; ++c) {
      if (!have_valid_child[c]) continue;
      const std::vector<ObjectId>& sub =
          actives_[static_cast<size_t>(node.child[c])];
      const uint64_t child_weight = WeightOf(corpus_, sub);
      if (2 * child_weight > node_weight && 2 * sub.size() > active.size()) {
        report_->Add(AuditCheck::kWeightAccounting, idx,
                     "child %d halves neither weight (%llu of %llu) nor "
                     "cardinality (%zu of %zu)",
                     c, static_cast<unsigned long long>(child_weight),
                     static_cast<unsigned long long>(node_weight), sub.size(),
                     active.size());
      }
    }
  }

  // Top-down pass: directory recounts need the inherited-keyword set, which
  // is the parent chain's large sets — available only after the active sets
  // exist.
  void CheckDirectories(uint32_t idx, const std::vector<KeywordId>* inherited) {
    const auto& node = nodes_[idx];
    if (IsLeaf(node)) return;
    static const std::vector<ObjectId> kEmpty;
    const std::vector<ObjectId>* child_active[2] = {&kEmpty, &kEmpty};
    for (int c = 0; c < 2; ++c) {
      const int32_t child = node.child[c];
      if (child > static_cast<int32_t>(idx) &&
          child < static_cast<int32_t>(nodes_.size())) {
        child_active[c] = &actives_[static_cast<size_t>(child)];
      }
    }
    const std::vector<KeywordId> larges = CheckNodeDirectory(
        corpus_, options_, actives_[idx], child_active, inherited,
        AuditAccess::Directory(index_, node), idx, report_);
    for (int c = 0; c < 2; ++c) {
      const int32_t child = node.child[c];
      if (child > static_cast<int32_t>(idx) &&
          child < static_cast<int32_t>(nodes_.size())) {
        CheckDirectories(static_cast<uint32_t>(child), &larges);
      }
    }
  }

  const Index& index_;
  const std::remove_cvref_t<decltype(AuditAccess::Nodes(
      std::declval<const Index&>()))>& nodes_;
  const Corpus& corpus_;
  const FrameworkOptions& options_;
  const AuditOptions audit_options_;
  AuditReport* report_;

  std::vector<uint8_t> seen_;        // Per object: pivot-set occurrences.
  std::vector<uint8_t> referenced_;  // Per node: parent references.
  std::vector<std::vector<ObjectId>> actives_;  // Per node, sorted by id.
  uint64_t materialized_total_ = 0;
  int max_level_ = 0;
};

/// Rank-space reduction checks (Section 3.4): per dimension, the stored rank
/// points form a permutation of 0..n-1 and agree with the rank tables.
template <int D, typename Scalar>
void CheckRankSpace(const OrpKwIndex<D, Scalar>& index, AuditReport* report) {
  const auto& rank = AuditAccess::RankSpaceOf(index);
  const auto& rank_points = AuditAccess::RankPoints(index);
  const size_t n = AuditAccess::CorpusOf(index)->num_objects();
  if (rank.num_points() != n || rank_points.size() != n) {
    report->Add(AuditCheck::kRankSpace, -1,
                "rank tables cover %zu points, images cover %zu, corpus has "
                "%zu objects",
                rank.num_points(), rank_points.size(), n);
    return;
  }
  std::vector<uint8_t> seen(n);
  for (int dim = 0; dim < D; ++dim) {
    std::fill(seen.begin(), seen.end(), 0);
    for (size_t e = 0; e < n; ++e) {
      const int64_t r = rank_points[e][dim];
      if (r < 0 || r >= static_cast<int64_t>(n)) {
        report->Add(AuditCheck::kRankSpace, -1,
                    "object %zu has rank %lld outside [0, %zu) in dim %d", e,
                    static_cast<long long>(r), n, dim);
        continue;
      }
      if (seen[static_cast<size_t>(r)]++ != 0) {
        report->Add(AuditCheck::kRankSpace, -1,
                    "rank %lld in dim %d assigned to more than one object",
                    static_cast<long long>(r), dim);
      }
    }
  }
  for (size_t e = 0; e < n; ++e) {
    if (!(rank.ToRank(static_cast<uint32_t>(e)) == rank_points[e])) {
      report->Add(AuditCheck::kRankSpace, -1,
                  "stored rank image of object %zu disagrees with the rank "
                  "tables",
                  e);
    }
  }
}

/// Audit of one dimension-reduction tree (Theorem 2): fanout schedule,
/// f-balanced quotas, sigma tightness, separator placement, sub-corpus and
/// id_map consistency, plus a recursive audit of every secondary index.
template <int D, typename Scalar>
class DimRedAuditor {
 public:
  using Index = DimRedOrpKwIndex<D, Scalar>;

  DimRedAuditor(const Index& index, const AuditOptions& audit_options,
                AuditReport* report)
      : index_(index),
        nodes_(AuditAccess::Nodes(index)),
        corpus_(*AuditAccess::CorpusOf(index)),
        points_(AuditAccess::Points(index)),
        options_(AuditAccess::Options(index)),
        audit_options_(audit_options),
        report_(report) {}

  void Run() {
    const size_t n = corpus_.num_objects();
    if (nodes_.empty()) {
      if (n > 0) {
        report_->Add(AuditCheck::kPartitionCoverage, -1,
                     "index has no nodes but the corpus has %zu objects", n);
      }
      return;
    }
    seen_.assign(n, 0);
    referenced_.assign(nodes_.size(), 0);
    Walk(0, /*expected_level=*/0);

    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (referenced_[i] == 0) {
        report_->Add(AuditCheck::kTreeStructure, static_cast<int64_t>(i),
                     "node unreachable from the root");
      }
    }
    for (size_t e = 0; e < n; ++e) {
      if (seen_[e] == 0) {
        report_->Add(AuditCheck::kPartitionCoverage, -1,
                     "object %zu appears in no pivot set", e);
      }
    }
    report_->objects_checked += n;

    // Proposition 1: the doubly-exponential fanout schedule caps the tree at
    // O(log_k log_2 N) levels.
    const double log_weight = std::log2(
        std::max<double>(2.0, static_cast<double>(corpus_.total_weight())));
    const int level_bound =
        3 + static_cast<int>(std::ceil(std::log(std::max(1.0, log_weight)) /
                                       std::log(static_cast<double>(
                                           std::max(2, options_.k)))));
    if (max_level_ + 1 > level_bound) {
      report_->Add(AuditCheck::kDepthBound, -1,
                   "tree has %d levels, the O(log log N) bound allows %d",
                   max_level_ + 1, level_bound);
    }

    // Space: active sets of one level are disjoint, so each level's
    // secondary structures cover at most n objects (the per-level slice of
    // Theorem 2's O(N log log N) space bound).
    for (size_t level = 0; level < level_active_.size(); ++level) {
      if (level_active_[level] > n) {
        report_->Add(AuditCheck::kSpaceBound, -1,
                     "level %zu secondaries cover %llu objects, corpus has "
                     "%zu",
                     level,
                     static_cast<unsigned long long>(level_active_[level]),
                     n);
      }
    }
    if (nodes_.size() > 2 * n + 2) {
      report_->Add(AuditCheck::kSpaceBound, -1,
                   "%zu nodes for %zu objects breaks linear node accounting",
                   nodes_.size(), n);
    }
  }

 private:
  bool LessXId(ObjectId a, ObjectId b) const {
    if (points_[a][0] != points_[b][0]) return points_[a][0] < points_[b][0];
    return a < b;
  }

  // Returns the subtree's active set sorted by (x, id) — the order the
  // construction keeps everywhere.
  std::vector<ObjectId> Walk(uint32_t idx, int expected_level) {
    const auto& node = nodes_[idx];
    ++report_->nodes_checked;
    max_level_ = std::max(max_level_, expected_level);
    if (static_cast<int>(node.level) != expected_level) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "node level %d, DFS depth says %d",
                   static_cast<int>(node.level), expected_level);
    }

    std::vector<std::vector<ObjectId>> groups;
    groups.reserve(node.children.size());
    uint32_t prev = idx;
    bool first = true;
    for (uint32_t child : node.children) {
      if (child <= idx || child >= nodes_.size()) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "child index %u out of range", child);
        continue;
      }
      if (first && child != idx + 1) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "first child %u breaks DFS preorder", child);
      }
      if (!first && child <= prev) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "children out of arena order at %u", child);
      }
      first = false;
      prev = child;
      if (referenced_[child]++ != 0) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "node %u referenced more than once", child);
        continue;
      }
      groups.push_back(Walk(child, expected_level + 1));
    }

    std::vector<ObjectId> active;
    for (ObjectId e : node.pivots) {
      if (static_cast<size_t>(e) >= seen_.size()) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "pivot id %u out of range", e);
        continue;
      }
      if (seen_[e]++ != 0) {
        report_->Add(AuditCheck::kPartitionDisjoint, idx,
                     "object %u stored in more than one pivot set", e);
      }
      active.push_back(e);
    }
    for (const std::vector<ObjectId>& group : groups) {
      active.insert(active.end(), group.begin(), group.end());
    }
    std::sort(active.begin(), active.end(),
              [this](ObjectId a, ObjectId b) { return LessXId(a, b); });
    if (active.empty()) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "node has an empty active set");
      return active;
    }

    // sigma(u) is the tight x-range of the active set.
    if (node.sigma_lo != points_[active.front()][0] ||
        node.sigma_hi != points_[active.back()][0]) {
      report_->Add(AuditCheck::kCellGeometry, idx,
                   "sigma(u) is not the tight x-range of the active set");
    }

    // Groups are contiguous runs in (x, id) order, and every separator falls
    // strictly between the groups it separates — never inside one.
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
      if (!groups[g].empty() && !groups[g + 1].empty() &&
          !LessXId(groups[g].back(), groups[g + 1].front())) {
        report_->Add(AuditCheck::kCellGeometry, idx,
                     "groups %zu and %zu overlap in (x, id) order", g, g + 1);
      }
    }
    for (ObjectId p : node.pivots) {
      if (static_cast<size_t>(p) >= seen_.size()) continue;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].empty()) continue;
        if (!LessXId(p, groups[g].front()) && !LessXId(groups[g].back(), p)) {
          report_->Add(AuditCheck::kCellGeometry, idx,
                       "separator %u lies inside group %zu's x-range", p, g);
        }
      }
    }

    if (node.children.empty()) {
      AuditLeaf(idx, node, active);
      return active;
    }
    AuditInternal(idx, expected_level, node, active, groups);
    return active;
  }

  template <typename Node>
  void AuditLeaf(uint32_t idx, const Node& node,
                 const std::vector<ObjectId>& active) {
    if (active.size() > static_cast<size_t>(options_.leaf_objects)) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "leaf holds %zu objects, leaf_objects = %d", active.size(),
                   options_.leaf_objects);
    }
    if (node.fanout != 0) {
      report_->Add(AuditCheck::kFanoutSchedule, idx,
                   "leaf records fanout %llu, expected 0",
                   static_cast<unsigned long long>(node.fanout));
    }
    if (node.secondary != nullptr || node.sub_corpus != nullptr) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "leaf carries a secondary index");
    }
    if (node.pivots != active) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "leaf pivot set differs from its active set");
    }
  }

  template <typename Node>
  void AuditInternal(uint32_t idx, int expected_level, const Node& node,
                     const std::vector<ObjectId>& active,
                     const std::vector<std::vector<ObjectId>>& groups) {
    // Eq. (10): f_u = 2 * 2^(k^level), saturated at the active-set size.
    const uint64_t expected_fanout =
        FanoutForLevel(options_.k, expected_level, active.size());
    if (node.fanout != expected_fanout) {
      report_->Add(AuditCheck::kFanoutSchedule, idx,
                   "fanout %llu, schedule f_u = 2*2^(k^level) expects %llu",
                   static_cast<unsigned long long>(node.fanout),
                   static_cast<unsigned long long>(expected_fanout));
    }
    if (node.pivots.size() + 1 > expected_fanout) {
      report_->Add(AuditCheck::kFanoutSchedule, idx,
                   "%zu separators for fanout %llu (at most f - 1 allowed)",
                   node.pivots.size(),
                   static_cast<unsigned long long>(expected_fanout));
    }
    if (groups.size() > expected_fanout) {
      report_->Add(AuditCheck::kFanoutSchedule, idx,
                   "%zu groups for fanout %llu", groups.size(),
                   static_cast<unsigned long long>(expected_fanout));
    }
    // The f-balanced quota (footnote 13): every group's verbose-set weight
    // stays within total / f.
    const uint64_t quota = WeightOf(corpus_, active) / expected_fanout;
    for (size_t g = 0; g < groups.size(); ++g) {
      const uint64_t group_weight = WeightOf(corpus_, groups[g]);
      if (group_weight > quota) {
        report_->Add(AuditCheck::kFanoutSchedule, idx,
                     "group %zu weight %llu exceeds the f-balanced quota "
                     "%llu",
                     g, static_cast<unsigned long long>(group_weight),
                     static_cast<unsigned long long>(quota));
      }
    }

    if (node.secondary == nullptr || node.sub_corpus == nullptr) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "internal node lacks a secondary index");
      return;
    }
    if (node.id_map != active) {
      report_->Add(AuditCheck::kTreeStructure, idx,
                   "id_map does not enumerate the active set in (x, id) "
                   "order");
    } else {
      if (node.sub_corpus->num_objects() != active.size()) {
        report_->Add(AuditCheck::kTreeStructure, idx,
                     "sub-corpus holds %zu documents for %zu active objects",
                     node.sub_corpus->num_objects(), active.size());
      } else {
        for (size_t i = 0; i < active.size(); ++i) {
          if (!(node.sub_corpus->doc(static_cast<ObjectId>(i)) ==
                corpus_.doc(node.id_map[i]))) {
            report_->Add(AuditCheck::kTreeStructure, idx,
                         "sub-corpus document %zu differs from the original",
                         i);
            break;
          }
        }
      }
      CheckSecondaryGeometry(idx, node);
    }

    AuditReport sub = AuditIndex(*node.secondary, audit_options_);
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "node %u secondary: ", idx);
    report_->Merge(sub, prefix);

    if (level_active_.size() <= static_cast<size_t>(expected_level)) {
      level_active_.resize(static_cast<size_t>(expected_level) + 1, 0);
    }
    level_active_[static_cast<size_t>(expected_level)] += node.id_map.size();
  }

  // The secondary index covers the active set with the x-dimension dropped.
  // For the OrpKw base case the projection survives only as rank tables, so
  // the check compares rank order against the projected coordinate order;
  // deeper recursion keeps raw points and is compared directly.
  template <typename Node>
  void CheckSecondaryGeometry(uint32_t idx, const Node& node) {
    if constexpr (D == 3) {
      const auto& rank_points = AuditAccess::RankPoints(*node.secondary);
      const size_t m = node.id_map.size();
      if (rank_points.size() != m) {
        report_->Add(AuditCheck::kRankSpace, idx,
                     "secondary rank images cover %zu of %zu objects",
                     rank_points.size(), m);
        return;
      }
      std::vector<uint32_t> order(m);
      for (int j = 0; j < 2; ++j) {
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                    const Scalar ca = points_[node.id_map[a]][j + 1];
                    const Scalar cb = points_[node.id_map[b]][j + 1];
                    if (ca != cb) return ca < cb;
                    return a < b;
                  });
        for (size_t pos = 0; pos < m; ++pos) {
          if (rank_points[order[pos]][j] != static_cast<int64_t>(pos)) {
            report_->Add(AuditCheck::kRankSpace, idx,
                         "secondary rank order in dim %d disagrees with the "
                         "projected coordinates",
                         j);
            break;
          }
        }
      }
    } else {
      const auto& sub_points = AuditAccess::Points(*node.secondary);
      if (sub_points.size() != node.id_map.size()) {
        report_->Add(AuditCheck::kCellGeometry, idx,
                     "secondary stores %zu points for %zu objects",
                     sub_points.size(), node.id_map.size());
        return;
      }
      for (size_t i = 0; i < sub_points.size(); ++i) {
        bool match = true;
        for (int dim = 1; dim < D; ++dim) {
          if (sub_points[i][dim - 1] != points_[node.id_map[i]][dim]) {
            match = false;
          }
        }
        if (!match) {
          report_->Add(AuditCheck::kCellGeometry, idx,
                       "secondary point %zu is not the x-dropped projection",
                       i);
          break;
        }
      }
    }
  }

  const Index& index_;
  const std::remove_cvref_t<decltype(AuditAccess::Nodes(
      std::declval<const Index&>()))>& nodes_;
  const Corpus& corpus_;
  const std::vector<Point<D, Scalar>>& points_;
  const FrameworkOptions& options_;
  const AuditOptions audit_options_;
  AuditReport* report_;

  std::vector<uint8_t> seen_;
  std::vector<uint8_t> referenced_;
  std::vector<uint64_t> level_active_;
  int max_level_ = 0;
};

}  // namespace internal_auditor

template <int D, typename Scalar>
AuditReport AuditIndex(const OrpKwIndex<D, Scalar>& index,
                       const AuditOptions& options) {
  AuditReport report;
  internal_auditor::FrameworkTreeAuditor<D, Scalar, OrpKwIndex<D, Scalar>,
                                         /*kSharedBoundary=*/false>
      auditor(index, options, &report);
  auditor.Run();
  internal_auditor::CheckRankSpace(index, &report);
  if (options.check_serialization) {
    internal_auditor::CheckSerializationRoundTrip(
        index, *AuditAccess::CorpusOf(index), &report);
  }
  return report;
}

template <int D, typename Scalar>
AuditReport AuditIndex(const SpKwBoxIndex<D, Scalar>& index,
                       const AuditOptions& options) {
  AuditReport report;
  internal_auditor::FrameworkTreeAuditor<D, Scalar, SpKwBoxIndex<D, Scalar>,
                                         /*kSharedBoundary=*/true>
      auditor(index, options, &report);
  auditor.Run();
  if (options.check_serialization) {
    internal_auditor::CheckSerializationRoundTrip(
        index, *AuditAccess::CorpusOf(index), &report);
  }
  return report;
}

template <int D, typename Scalar>
AuditReport AuditIndex(const DimRedOrpKwIndex<D, Scalar>& index,
                       const AuditOptions& options) {
  AuditReport report;
  internal_auditor::DimRedAuditor<D, Scalar> auditor(index, options, &report);
  auditor.Run();
  return report;
}

template <int D, typename Scalar>
AuditReport AuditIndex(const RrKwIndex<D, Scalar>& index,
                       const AuditOptions& options) {
  AuditReport report;
  report.Merge(AuditIndex(AuditAccess::Engine(index), options),
               "lifted engine: ");
  return report;
}

/// Audit of a v2 flat container on disk (or in memory via
/// MmapFile::FromBytes) *before* it is loaded: header magic and family tag,
/// slab offsets aligned and in bounds, secondary-structure sortedness,
/// canonical keyword order, id ranges — the deep half of the family's
/// ValidateFlat, with every finding reported as AuditCheck::kFlatLayout
/// instead of aborting the process. `Index` is the family class
/// (e.g. OrpKwIndex<2>); the container's offset defaults to 0.
template <typename Index>
AuditReport AuditFlatFile(const MmapFile& file, uint64_t offset = 0,
                          uint32_t expected_tag = Index::kFlatFamilyTag) {
  AuditReport report;
  const FlatErrorSink sink = [&report](const std::string& message) {
    report.Add(AuditCheck::kFlatLayout, -1, "%s", message.c_str());
  };
  Index::ValidateFlat(file, offset, expected_tag, sink);
  ++report.nodes_checked;  // The container itself; a zero here means "file
                           // never opened", not "clean".
  return report;
}

/// Audit of the plain kd-tree baseline: DFS preorder arena, tight bounding
/// boxes at every node, leaf ranges that partition the id permutation.
template <int D, typename Scalar>
AuditReport AuditKdTree(const KdTree<D, Scalar>& tree) {
  AuditReport report;
  const auto& nodes = AuditAccess::Nodes(tree);
  const auto& ids = AuditAccess::Ids(tree);
  const auto& points = AuditAccess::Points(tree);
  const size_t n = points.size();
  report.objects_checked += n;

  if (ids.size() != n) {
    report.Add(AuditCheck::kPartitionCoverage, -1,
               "id permutation covers %zu of %zu points", ids.size(), n);
  } else {
    std::vector<uint8_t> seen(n, 0);
    for (uint32_t id : ids) {
      if (static_cast<size_t>(id) >= n) {
        report.Add(AuditCheck::kTreeStructure, -1, "id %u out of range", id);
      } else if (seen[id]++ != 0) {
        report.Add(AuditCheck::kPartitionDisjoint, -1,
                   "id %u appears twice in the permutation", id);
      }
    }
    for (size_t e = 0; e < n; ++e) {
      if (seen[e] == 0) {
        report.Add(AuditCheck::kPartitionCoverage, -1,
                   "point %zu missing from the permutation", e);
      }
    }
  }
  if (nodes.empty()) {
    if (n > 0) {
      report.Add(AuditCheck::kTreeStructure, -1,
                 "tree has no nodes for %zu points", n);
    }
    return report;
  }

  using BoxType = std::remove_cvref_t<decltype(nodes[0].bounds)>;
  std::vector<uint8_t> referenced(nodes.size(), 0);
  size_t cursor = 0;  // Next expected leaf begin (leaves tile [0, n)).

  // Recursive walk without std::function: explicit stack of (node, phase).
  struct Frame {
    uint32_t node;
    bool expanded;
  };
  std::vector<Frame> stack;
  stack.push_back({0, false});
  std::vector<BoxType> tight(nodes.size());
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const auto& node = nodes[frame.node];
    if (!frame.expanded) {
      ++report.nodes_checked;
      if (node.IsLeaf()) {
        if (node.begin != cursor) {
          report.Add(AuditCheck::kTreeStructure, frame.node,
                     "leaf range starts at %u, DFS order expects %zu",
                     node.begin, cursor);
        }
        if (node.begin > node.end || node.end > ids.size()) {
          report.Add(AuditCheck::kTreeStructure, frame.node,
                     "leaf range [%u, %u) out of bounds", node.begin,
                     node.end);
        } else {
          cursor = node.end;
          BoxType box;
          for (uint32_t i = node.begin; i < node.end; ++i) {
            const auto& p = points[ids[i]];
            if (i == node.begin) {
              box.lo = p;
              box.hi = p;
            }
            for (int dim = 0; dim < D; ++dim) {
              box.lo[dim] = std::min(box.lo[dim], p[dim]);
              box.hi[dim] = std::max(box.hi[dim], p[dim]);
            }
          }
          tight[frame.node] = box;
          if (node.begin < node.end && !(box == node.bounds)) {
            report.Add(AuditCheck::kCellGeometry, frame.node,
                       "leaf bounds are not the tight box of its points");
          }
        }
        continue;
      }
      if (node.left <= frame.node || node.left >= nodes.size() ||
          node.right <= node.left || node.right >= nodes.size()) {
        report.Add(AuditCheck::kTreeStructure, frame.node,
                   "children (%u, %u) out of range", node.left, node.right);
        continue;
      }
      if (node.left != frame.node + 1) {
        report.Add(AuditCheck::kTreeStructure, frame.node,
                   "left child %u breaks DFS preorder", node.left);
      }
      if (referenced[node.left]++ != 0 || referenced[node.right]++ != 0) {
        report.Add(AuditCheck::kTreeStructure, frame.node,
                   "a child is referenced more than once");
        continue;
      }
      stack.push_back({frame.node, true});
      // Right is pushed first so the left subtree is visited first (DFS).
      stack.push_back({node.right, false});
      stack.push_back({node.left, false});
      continue;
    }
    // Post-order: bounds must be the tight union of the children.
    BoxType box = tight[node.left];
    for (int dim = 0; dim < D; ++dim) {
      box.lo[dim] = std::min(box.lo[dim], tight[node.right].lo[dim]);
      box.hi[dim] = std::max(box.hi[dim], tight[node.right].hi[dim]);
    }
    tight[frame.node] = box;
    if (!(box == node.bounds)) {
      report.Add(AuditCheck::kCellGeometry, frame.node,
                 "internal bounds are not the union of the child bounds");
    }
  }
  if (cursor != n) {
    report.Add(AuditCheck::kPartitionCoverage, -1,
               "leaf ranges cover [0, %zu), expected [0, %zu)", cursor, n);
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (referenced[i] == 0) {
      report.Add(AuditCheck::kTreeStructure, static_cast<int64_t>(i),
                 "node unreachable from the root");
    }
  }
  return report;
}

/// Audit of the centered interval tree baseline: every stored interval
/// contains its node's center, the two sort orders agree as multisets, and
/// subtrees lie strictly on their side of the center.
template <typename Scalar>
AuditReport AuditIntervalTree(const IntervalTree<Scalar>& tree) {
  AuditReport report;
  const auto& nodes = AuditAccess::Nodes(tree);
  const auto& intervals = AuditAccess::Intervals(tree);
  const int32_t root = AuditAccess::Root(tree);
  const size_t n = intervals.size();
  report.objects_checked += n;

  if (root < 0 || nodes.empty()) {
    if (n > 0) {
      report.Add(AuditCheck::kTreeStructure, -1,
                 "tree has no root for %zu intervals", n);
    }
    return report;
  }
  if (root >= static_cast<int32_t>(nodes.size())) {
    report.Add(AuditCheck::kTreeStructure, -1, "root index %d out of range",
               root);
    return report;
  }

  std::vector<uint8_t> seen(n, 0);
  std::vector<uint8_t> referenced(nodes.size(), 0);
  referenced[static_cast<size_t>(root)] = 1;

  struct SubtreeSpan {
    Scalar min_lo;
    Scalar max_hi;
    bool any = false;
  };
  // Recursive audit; the tree is weight-balanced by construction so the
  // recursion depth is logarithmic.
  const std::function<SubtreeSpan(int32_t)> walk =
      [&](int32_t index) -> SubtreeSpan {
    const auto& node = nodes[static_cast<size_t>(index)];
    ++report.nodes_checked;
    SubtreeSpan span;
    if (node.by_lo.empty() || node.by_lo.size() != node.by_hi.size()) {
      report.Add(AuditCheck::kTreeStructure, index,
                 "centered lists have sizes %zu and %zu", node.by_lo.size(),
                 node.by_hi.size());
    }
    for (size_t i = 0; i < node.by_lo.size(); ++i) {
      const uint32_t id = node.by_lo[i];
      if (static_cast<size_t>(id) >= n) {
        report.Add(AuditCheck::kTreeStructure, index,
                   "interval id %u out of range", id);
        continue;
      }
      if (seen[id]++ != 0) {
        report.Add(AuditCheck::kPartitionDisjoint, index,
                   "interval %u stored at more than one node", id);
      }
      const auto& iv = intervals[id];
      if (iv.lo[0] > node.center || iv.hi[0] < node.center) {
        report.Add(AuditCheck::kCellGeometry, index,
                   "interval %u does not contain the node center", id);
      }
      if (!span.any) {
        span.min_lo = iv.lo[0];
        span.max_hi = iv.hi[0];
        span.any = true;
      } else {
        span.min_lo = std::min(span.min_lo, iv.lo[0]);
        span.max_hi = std::max(span.max_hi, iv.hi[0]);
      }
      if (i > 0 && intervals[node.by_lo[i - 1]].lo[0] > iv.lo[0]) {
        report.Add(AuditCheck::kTreeStructure, index,
                   "by_lo is not sorted by left endpoint");
      }
    }
    for (size_t i = 0; i + 1 < node.by_hi.size(); ++i) {
      if (static_cast<size_t>(node.by_hi[i]) >= n ||
          static_cast<size_t>(node.by_hi[i + 1]) >= n) {
        continue;
      }
      if (intervals[node.by_hi[i]].hi[0] < intervals[node.by_hi[i + 1]].hi[0]) {
        report.Add(AuditCheck::kTreeStructure, index,
                   "by_hi is not sorted by descending right endpoint");
      }
    }
    {
      std::vector<uint32_t> a(node.by_lo);
      std::vector<uint32_t> b(node.by_hi);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) {
        report.Add(AuditCheck::kTreeStructure, index,
                   "by_lo and by_hi disagree as sets");
      }
    }
    for (const int32_t child : {node.left, node.right}) {
      if (child < 0) continue;
      if (child >= static_cast<int32_t>(nodes.size()) ||
          referenced[static_cast<size_t>(child)]++ != 0) {
        report.Add(AuditCheck::kTreeStructure, index,
                   "child %d invalid or referenced more than once", child);
        continue;
      }
      const SubtreeSpan child_span = walk(child);
      if (child_span.any) {
        const bool is_left = child == node.left;
        if (is_left && child_span.max_hi >= node.center) {
          report.Add(AuditCheck::kCellGeometry, index,
                     "left subtree reaches the center from below");
        }
        if (!is_left && child_span.min_lo <= node.center) {
          report.Add(AuditCheck::kCellGeometry, index,
                     "right subtree reaches the center from above");
        }
        if (!span.any) {
          span = child_span;
        } else {
          span.min_lo = std::min(span.min_lo, child_span.min_lo);
          span.max_hi = std::max(span.max_hi, child_span.max_hi);
        }
      }
    }
    return span;
  };
  walk(root);

  for (size_t e = 0; e < n; ++e) {
    if (seen[e] == 0) {
      report.Add(AuditCheck::kPartitionCoverage, -1,
                 "interval %zu stored at no node", e);
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (referenced[i] == 0) {
      report.Add(AuditCheck::kTreeStructure, static_cast<int64_t>(i),
                 "node unreachable from the root");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Batch-dynamic layer (core/dynamic_index.h; DESIGN.md §7). The auditor
// works over a locked copy of the writer state (DebugAuditView), so it can
// run while background merges are in flight; the quiescence-only checks
// (buffer under capacity) are skipped mid-merge.
// ---------------------------------------------------------------------------

template <typename Family>
AuditReport AuditIndex(const DynamicIndex<Family>& index,
                       const AuditOptions& options) {
  using View = typename DynamicIndex<Family>::AuditView;
  AuditReport report;
  const View view = index.DebugAuditView();
  const std::vector<uint8_t>& dead = *view.dead;

  // --- Registry/tombstone consistency (kDynamicRegistry). ---
  if (view.geoms.size() != view.num_objects ||
      view.docs.size() != view.num_objects) {
    report.Add(AuditCheck::kDynamicRegistry, -1,
               "registry holds %zu geometries / %zu documents for %llu ids",
               view.geoms.size(), view.docs.size(),
               static_cast<unsigned long long>(view.num_objects));
    return report;  // Everything below indexes the registry by id.
  }
  if (dead.size() > view.num_objects) {
    report.Add(AuditCheck::kDynamicRegistry, -1,
               "tombstone bitmap covers %zu ids, registry has %llu",
               dead.size(), static_cast<unsigned long long>(view.num_objects));
  }
  uint64_t dead_count = 0;
  for (const uint8_t d : dead) dead_count += d != 0;
  if (view.live_objects + dead_count != view.num_objects) {
    report.Add(AuditCheck::kDynamicRegistry, -1,
               "live (%llu) + dead (%llu) != inserted (%llu)",
               static_cast<unsigned long long>(view.live_objects),
               static_cast<unsigned long long>(dead_count),
               static_cast<unsigned long long>(view.num_objects));
  }
  const auto is_dead = [&dead](ObjectId id) {
    return id < dead.size() && dead[id] != 0;
  };

  // Membership: every live id in exactly one component (buffer or one
  // level); dead ids in at most one (a carry that gathered the id dropped
  // it). Counts occurrences across the whole decomposition.
  std::vector<uint32_t> seen(view.num_objects, 0);
  const auto count_member = [&](ObjectId id, const char* where,
                                int64_t node) {
    if (id >= view.num_objects) {
      report.Add(AuditCheck::kDynamicRegistry, node,
                 "%s holds unknown id %llu", where,
                 static_cast<unsigned long long>(id));
      return;
    }
    ++seen[id];
  };
  for (const ObjectId id : view.buffer_ids) count_member(id, "buffer", -1);
  for (size_t slot = 0; slot < view.levels.size(); ++slot) {
    if (view.levels[slot] == nullptr) continue;
    for (const ObjectId id : view.levels[slot]->id_map) {
      count_member(id, "level", static_cast<int64_t>(slot));
    }
  }
  for (ObjectId id = 0; id < view.num_objects; ++id) {
    if (!is_dead(id) && seen[id] != 1) {
      report.Add(AuditCheck::kDynamicRegistry, -1,
                 "live id %llu stored %u times (want exactly 1)",
                 static_cast<unsigned long long>(id), seen[id]);
    }
    if (is_dead(id) && seen[id] > 1) {
      report.Add(AuditCheck::kDynamicRegistry, -1,
                 "tombstoned id %llu stored %u times (want at most 1)",
                 static_cast<unsigned long long>(id), seen[id]);
    }
  }

  // --- Level-set shape (kDynamicLevels). ---
  if (!view.merge_inflight && view.buffer_ids.size() >= view.buffer_capacity) {
    report.Add(AuditCheck::kDynamicLevels, -1,
               "buffer holds %zu ids at quiescence (capacity %zu)",
               view.buffer_ids.size(), view.buffer_capacity);
  }
  for (size_t slot = 0; slot < view.levels.size(); ++slot) {
    const auto& level = view.levels[slot];
    if (level == nullptr) continue;
    const int64_t node = static_cast<int64_t>(slot);
    const uint64_t cap = static_cast<uint64_t>(view.buffer_capacity)
                         << std::min<size_t>(slot, 48);
    if (level->id_map.size() > cap) {
      report.Add(AuditCheck::kDynamicLevels, node,
                 "level %zu holds %zu members, geometric bound is %llu",
                 slot, level->id_map.size(),
                 static_cast<unsigned long long>(cap));
    }
    if (level->geoms.size() != level->id_map.size() ||
        level->corpus == nullptr ||
        level->corpus->num_objects() != level->id_map.size() ||
        level->index == nullptr) {
      report.Add(AuditCheck::kDynamicLevels, node,
                 "level %zu internal sizes disagree", slot);
      continue;
    }
    for (size_t i = 0; i < level->id_map.size(); ++i) {
      const ObjectId id = level->id_map[i];
      if (id >= view.num_objects) continue;  // Reported above.
      if (!(level->geoms[i] == view.geoms[id])) {
        report.Add(AuditCheck::kDynamicLevels, node,
                   "level %zu member %zu geometry diverged from registry",
                   slot, i);
      }
      if (!(level->corpus->doc(static_cast<ObjectId>(i)) ==
            DocumentView(view.docs[id]->keywords()))) {
        report.Add(AuditCheck::kDynamicLevels, node,
                   "level %zu member %zu document diverged from registry",
                   slot, i);
      }
    }
    // Per-level static audit: each level is a full member of its family and
    // must satisfy every paper invariant on its own.
    AuditReport sub = AuditIndex(*level->index, options);
    report.Merge(sub, "level " + std::to_string(slot) + ": ");
  }
  report.objects_checked += view.num_objects;
  return report;
}

}  // namespace audit
}  // namespace kwsc

#endif  // KWSC_AUDIT_INDEX_AUDITOR_H_
