// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared pieces of the index transformation framework (Section 3).
//
// Every transformed index in this library follows the paper's four steps:
//   1. a space-partitioning tree is built on the *verbose set* (each object
//      weighted by its document size);
//   2. each node u carries an active set D_u^act and a pivot set D_u^pvt,
//      plus a secondary structure T_u (core/node_directory.h) recording which
//      keywords are large at u, which k-tuples of large keywords have a
//      non-empty intersection inside each child, and the materialized lists
//      D_u^act(w) for keywords that just turned small;
//   3. queries descend while all k keywords stay large, stop at the first
//      node where one turns small (scanning its materialized list), and
//      prune children by tuple emptiness and cell/query disjointness;
//   4. degeneracies are removed by rank space (kd path) or deterministic
//      tie-breaking (partition-tree path).
// This header holds the options, statistics, and keyword-validation helpers
// common to all of them.

#ifndef KWSC_CORE_FRAMEWORK_H_
#define KWSC_CORE_FRAMEWORK_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/abi.h"
#include "common/macros.h"
#include "common/ops_budget.h"
#include "text/document.h"

namespace kwsc {

/// Construction options shared by the framework indexes.
struct FrameworkOptions {
  /// Number of keywords every query must supply (the paper fixes k >= 2 at
  /// construction time).
  int k = 2;

  /// Large/small threshold exponent: keyword w is large at node u when
  /// |D_u^act(w)| >= N_u^alpha. The paper's choice is alpha = 1 - 1/k;
  /// bench_ablation_threshold sweeps this.
  /// A non-positive value means "use 1 - 1/k".
  double alpha = -1.0;

  /// Nodes whose active set has at most this many objects become leaves
  /// (their active set is their pivot set). The paper recurses to single
  /// objects; a small constant keeps the same asymptotics with fewer nodes.
  int leaf_objects = 4;

  /// Disables the per-child k-tuple emptiness pruning (ablation A2).
  bool enable_tuple_pruning = true;

  /// Disables materialized lists: queries hitting a small keyword fall back
  /// to scanning the whole active subtree (ablation A2).
  bool enable_materialized_lists = true;

  /// Box-substrate partition indexes only: decide cell-vs-polytope
  /// disjointness exactly with a small LP (geom/lp.h) instead of the
  /// conservative per-halfspace corner tests. Exact tests prune more cells
  /// per node at a higher per-node cost; results are identical either way.
  bool exact_cell_tests = false;

  /// Threads used to build the index (and, via core/query_engine.h, to shard
  /// query batches): 0 = one per hardware thread, 1 = fully sequential.
  /// Every setting produces the same index — parallel builds are
  /// byte-identical under SaveFlat — so this is purely a wall-clock knob. It
  /// is an execution property, not an index property, and is therefore
  /// excluded from serialization (see PersistedFrameworkOptions).
  int num_threads = 1;

  /// Records a per-query trace (phase spans + a QueryStats snapshot per
  /// query, see obs/trace.h) when batches run through core/query_engine.h.
  /// Off by default: tracing copies a QueryStats per query, and the hot path
  /// must not pay for observability nobody asked for. Like num_threads this
  /// is an execution property, not an index property, and is excluded from
  /// serialization (see PersistedFrameworkOptions).
  bool enable_tracing = false;

  double EffectiveAlpha() const {
    return alpha > 0 ? alpha : 1.0 - 1.0 / static_cast<double>(k);
  }
};

/// The on-disk image of FrameworkOptions: exactly the fields that determine
/// index structure, in the seed layout. Keeping this mirror (instead of
/// dumping FrameworkOptions raw) pins the persisted roots that embed it
/// while FrameworkOptions grows execution-only knobs like num_threads.
struct PersistedFrameworkOptions {
  int32_t k;
  double alpha;
  int32_t leaf_objects;
  bool enable_tuple_pruning;
  bool enable_materialized_lists;
  bool exact_cell_tests;
};
static_assert(sizeof(PersistedFrameworkOptions) == 24,
              "persisted layout of FrameworkOptions must not change");
// PADDED: 4 bytes of alignment gap after `k` and 1 tail byte, zeroed by the
// memset in PersistFrameworkOptions so persisted images stay
// byte-deterministic.
KWSC_ABI_STRUCT_PADDED_AS(PersistedFrameworkOptions,
                          PersistedFrameworkOptions);

/// Fills `*persisted` with the image of `options`, zeroed first so padding
/// bytes are deterministic (persisted bytes are compared byte-for-byte).
inline void PersistFrameworkOptions(const FrameworkOptions& options,
                                    PersistedFrameworkOptions* persisted) {
  std::memset(static_cast<void*>(persisted), 0, sizeof(*persisted));
  persisted->k = options.k;
  persisted->alpha = options.alpha;
  persisted->leaf_objects = options.leaf_objects;
  persisted->enable_tuple_pruning = options.enable_tuple_pruning;
  persisted->enable_materialized_lists = options.enable_materialized_lists;
  persisted->exact_cell_tests = options.exact_cell_tests;
}

/// The options a persisted image names; execution knobs keep defaults.
inline FrameworkOptions RestoreFrameworkOptions(
    const PersistedFrameworkOptions& persisted) {
  FrameworkOptions options;
  options.k = persisted.k;
  options.alpha = persisted.alpha;
  options.leaf_objects = persisted.leaf_objects;
  options.enable_tuple_pruning = persisted.enable_tuple_pruning;
  options.enable_materialized_lists = persisted.enable_materialized_lists;
  options.exact_cell_tests = persisted.exact_cell_tests;
  return options;
}

/// Index of the weighted median of `n` elements under the prefix rule shared
/// by every tree builder: the smallest m with 2 * prefix_weight(m) >= total.
/// The returned element becomes the pivot; elements before it go left, after
/// it go right.
///
/// Degenerate guard: when one element dominates the total weight the prefix
/// rule lands on position 0 or n-1, producing an empty child whose sibling
/// keeps everything else — chains of such splits peel one pivot per level
/// and depth degrades to O(N). Falling back to the cardinality median keeps
/// both children non-empty (for n >= 3); the dominant element then becomes a
/// pivot within O(1) further levels, so every level halves either the weight
/// or the cardinality and depth stays O(log N + log W).
template <typename WeightFn>
size_t WeightedMedianIndex(size_t n, WeightFn&& weight_of) {
  KWSC_CHECK(n > 0);
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += weight_of(i);
  size_t median = n - 1;
  uint64_t prefix = 0;
  for (size_t i = 0; i < n; ++i) {
    prefix += weight_of(i);
    if (2 * prefix >= total) {
      median = i;
      break;
    }
  }
  if (n >= 3 && (median == 0 || median == n - 1)) median = n / 2;
  return median;
}

/// Per-query instrumentation. All counters are optional to maintain: query
/// entry points accept a nullptr Stats.
struct QueryStats {
  uint64_t nodes_visited = 0;
  uint64_t covered_nodes = 0;    // Cell fully inside the query region.
  uint64_t crossing_nodes = 0;   // Cell intersecting the query boundary.
  uint64_t pivot_checks = 0;     // Objects examined from pivot sets.
  uint64_t list_scanned = 0;     // Objects examined from materialized lists.
  uint64_t results = 0;
  uint64_t tuple_pruned = 0;     // Children skipped by tuple emptiness.
  uint64_t geom_pruned = 0;      // Children skipped by cell/query tests.
  // Objects examined at covered vs. crossing nodes — the split the analysis
  // of Section 3.3 makes (Lemma 9 vs. the crossing-sensitivity bound (7)).
  uint64_t covered_work = 0;
  uint64_t crossing_work = 0;
  // Dimension-reduction queries (Section 4): nodes whose x-range lies inside
  // the query's x-interval (type 1, delegated to the secondary index) vs.
  // nodes whose range straddles a boundary (type 2, pivot scans). The paper
  // proves at most two type-2 nodes exist per level (Figure 2).
  uint64_t type1_nodes = 0;
  uint64_t type2_nodes = 0;
  std::vector<uint32_t> type2_per_level;
  bool budget_exhausted = false;

  uint64_t ObjectsExamined() const { return pivot_checks + list_scanned; }
};

/// Accumulates `from` into `into`. Used by the batched query engine to merge
/// per-shard statistics; merging shard stats in shard order yields the same
/// totals as threading one QueryStats through every query sequentially.
inline void MergeQueryStats(const QueryStats& from, QueryStats* into) {
  into->nodes_visited += from.nodes_visited;
  into->covered_nodes += from.covered_nodes;
  into->crossing_nodes += from.crossing_nodes;
  into->pivot_checks += from.pivot_checks;
  into->list_scanned += from.list_scanned;
  into->results += from.results;
  into->tuple_pruned += from.tuple_pruned;
  into->geom_pruned += from.geom_pruned;
  into->covered_work += from.covered_work;
  into->crossing_work += from.crossing_work;
  into->type1_nodes += from.type1_nodes;
  into->type2_nodes += from.type2_nodes;
  if (from.type2_per_level.size() > into->type2_per_level.size()) {
    into->type2_per_level.resize(from.type2_per_level.size(), 0);
  }
  for (size_t i = 0; i < from.type2_per_level.size(); ++i) {
    into->type2_per_level[i] += from.type2_per_level[i];
  }
  into->budget_exhausted |= from.budget_exhausted;
}

/// The largest k an index accepts. Directory probes size their local-id
/// scratch by it, and SortedKeywords holds this many ids inline.
inline constexpr int kMaxQueryKeywords = 8;

/// Aborts unless 2 <= k <= kMaxQueryKeywords: what the constructors accept
/// and what LoadFlat accepts from a file.
inline void CheckKeywordArity(int k) {
  KWSC_CHECK_MSG(k >= 2 && k <= kMaxQueryKeywords,
                 "k must be in [2, 8], got %d", k);
}

/// A query's keywords in canonical order: sorted and pairwise distinct (the
/// order the tuple registries use). Held inline, so canonicalizing a query
/// allocates nothing; the query paths view it as a span.
class SortedKeywords {
 public:
  /// Sorts `keywords`; aborts on a duplicate or on more than
  /// kMaxQueryKeywords of them.
  explicit SortedKeywords(std::span<const KeywordId> keywords)
      : size_(keywords.size()) {
    KWSC_CHECK_MSG(keywords.size() <= kMaxQueryKeywords,
                   "a query holds at most %d keywords, got %zu",
                   kMaxQueryKeywords, keywords.size());
    // Insertion sort while copying: at most 8 ids, and no call into
    // std::sort's general machinery on every query.
    for (size_t i = 0; i < size_; ++i) {
      const KeywordId w = keywords[i];
      size_t j = i;
      for (; j > 0 && ids_[j - 1] > w; --j) ids_[j] = ids_[j - 1];
      ids_[j] = w;
    }
    for (size_t i = 1; i < size_; ++i) {
      KWSC_CHECK_MSG(ids_[i] != ids_[i - 1],
                     "query keywords must be distinct (duplicate %u)",
                     ids_[i]);
    }
  }

  const KeywordId* data() const { return ids_.data(); }
  size_t size() const { return size_; }
  operator std::span<const KeywordId>() const { return {ids_.data(), size_}; }
  /// A heap copy, for callers that hold the keywords as a vector.
  operator std::vector<KeywordId>() const {
    return std::vector<KeywordId>(ids_.begin(), ids_.begin() + size_);
  }

 private:
  std::array<KeywordId, kMaxQueryKeywords> ids_{};
  size_t size_;
};

/// Validates a query keyword set against the construction-time k: exactly k
/// keywords, pairwise distinct. Returns them sorted.
inline SortedKeywords CanonicalizeQueryKeywords(
    std::span<const KeywordId> keywords, int k) {
  KWSC_CHECK_MSG(static_cast<int>(keywords.size()) == k,
                 "query must supply exactly k=%d keywords, got %zu", k,
                 keywords.size());
  return SortedKeywords(keywords);
}

/// The large/small cutoff at a node of weight `node_weight`:
/// max(1, node_weight^alpha). Clamping at 1 keeps "large" meaningful at tiny
/// nodes (a keyword with zero occurrences is never large).
inline double LargeThreshold(uint64_t node_weight, double alpha) {
  if (node_weight == 0) return 1.0;
  return std::max(1.0, std::pow(static_cast<double>(node_weight), alpha));
}

/// Default operation budget for "detect whether at least t results exist"
/// queries (Corollaries 4 and 7): C * N^{1-1/k} * t^{1/k} + C, with C chosen
/// generously so the guarantee of the underlying reporting index is the only
/// binding constraint.
inline uint64_t ThresholdQueryBudget(uint64_t n, int k, uint64_t t,
                                     double constant = 64.0) {
  const double exponent = 1.0 - 1.0 / static_cast<double>(k);
  const double bound = constant * (std::pow(static_cast<double>(n), exponent) *
                                       std::pow(static_cast<double>(t),
                                                1.0 / static_cast<double>(k)) +
                                   1.0);
  return static_cast<uint64_t>(bound);
}

}  // namespace kwsc

#endif  // KWSC_CORE_FRAMEWORK_H_
