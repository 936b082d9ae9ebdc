// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Structured violation reporting for the index auditor (see
// audit/index_auditor.h and DESIGN.md, "Verification ladder").
//
// Every check the auditor runs maps to a structural invariant the paper
// proves about a built index. A violation therefore names (a) the invariant
// class that failed, (b) the node it failed at, and (c) a human-readable
// description — enough for a test to assert that a specific injected
// corruption is caught as the *right* kind of defect, not merely "something
// is wrong".

#ifndef KWSC_AUDIT_AUDIT_H_
#define KWSC_AUDIT_AUDIT_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace kwsc {
namespace audit {

/// The invariant classes the auditor verifies. Each entry cites the paper
/// statement it mechanizes (see EXPERIMENTS.md, "Verification ladder" for
/// the full mapping).
enum class AuditCheck : uint8_t {
  /// Arena-tree well-formedness: child indices in range and in DFS preorder,
  /// every non-root node referenced exactly once, levels increase by one.
  kTreeStructure,
  /// Cell geometry of the space partition: child cells derived from the
  /// parent's split exactly, pivots on the splitting boundary (Section 3.2).
  kCellGeometry,
  /// Every object stored at most once across all pivot sets (Section 3.2:
  /// the pivot sets partition the input).
  kPartitionDisjoint,
  /// Every object stored at least once (coverage half of the partition).
  kPartitionCoverage,
  /// N_u bookkeeping: directory weight equals the recomputed verbose-set
  /// weight of the subtree, and each split halves weight or cardinality
  /// (the N_u = O(N / 2^level) argument behind Theorem 1).
  kWeightAccounting,
  /// Tree depth within the O(log N + log W) bound the halving implies.
  kDepthBound,
  /// Dimension-reduction fanout schedule f_u = 2 * 2^(k^level) (Eq. (10))
  /// and the f-balanced group-weight quota (Section 4 / Proposition 1).
  kFanoutSchedule,
  /// Large-keyword classification at each node matches a recount against
  /// the threshold N_u^alpha (Section 3.2).
  kDirectoryLarge,
  /// Materialized lists D_u^act(w) hold exactly the subtree objects whose
  /// documents contain w, for keywords small at u but inherited (Section
  /// 3.3; each (object, keyword) pair materializes at most once).
  kDirectoryMaterialized,
  /// Per-child k-tuple registry equals the realized non-empty tuples
  /// (the paper's k-dimensional bit array, Section 3.2).
  kDirectoryTuples,
  /// Linear-space accounting: node count, pivot total, and directory entry
  /// totals are O(N) (space claims of Theorems 1 and 2).
  kSpaceBound,
  /// Rank-space reduction: per-dimension ranks form a permutation and match
  /// the stored rank points (Section 3.4).
  kRankSpace,
  /// SaveFlat -> LoadFlat -> SaveFlat byte-identity (determinism contract
  /// of the persistence layer; see DESIGN.md, "Threading model").
  kSerialization,
  /// v2 flat-container well-formedness: header magic/tag, slab offsets
  /// 64-byte aligned and in bounds, secondary-structure sortedness and id
  /// ranges (DESIGN.md, "On-disk layout v2").
  kFlatLayout,
  /// Batch-dynamic level-set shape (DESIGN.md §7): geometric level sizes
  /// (slot s holds at most B * 2^s members), buffer under capacity at
  /// quiescence, per-level id_map/geometry/corpus agreement with the
  /// registry.
  kDynamicLevels,
  /// Batch-dynamic registry/tombstone consistency: dense ids, tombstones in
  /// range, live count bookkeeping, every live id in exactly one component
  /// and every dead id in at most one (carries drop tombstoned members).
  kDynamicRegistry,
};

/// Short stable name for a check class ("tree-structure", "fanout", ...).
const char* AuditCheckName(AuditCheck check);

/// One invariant failure. `node` is the arena index of the offending node,
/// or -1 when the violation is not attributable to a single node.
struct AuditViolation {
  AuditCheck check;
  int64_t node = -1;
  std::string message;
};

/// Result of auditing one index. Violations beyond `kMaxStored` are counted
/// but not stored, so auditing a badly corrupted index stays cheap.
class AuditReport {
 public:
  static constexpr size_t kMaxStored = 64;

  bool ok() const { return total_violations_ == 0; }
  uint64_t total_violations() const { return total_violations_; }
  const std::vector<AuditViolation>& violations() const { return violations_; }

  /// Number of violations (stored or not) of the given class.
  uint64_t CountOf(AuditCheck check) const;

  /// True iff at least one violation of the given class was recorded.
  bool Has(AuditCheck check) const { return CountOf(check) > 0; }

  /// Records a violation with a printf-formatted message.
  void Add(AuditCheck check, int64_t node, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 4, 5)))
#endif
      ;

  /// Folds `other` into this report (used when auditing composite indexes:
  /// a dimension-reduction node's secondary index audits into a sub-report).
  /// `prefix` labels where the sub-report came from.
  void Merge(const AuditReport& other, const std::string& prefix);

  /// Multi-line human-readable summary (empty-ish when ok()).
  std::string ToString() const;

  // Coverage counters, so "audit passed" is distinguishable from "audit
  // checked nothing".
  uint64_t nodes_checked = 0;
  uint64_t objects_checked = 0;

 private:
  std::vector<AuditViolation> violations_;
  std::vector<uint64_t> counts_;  // Indexed by AuditCheck value.
  uint64_t total_violations_ = 0;
};

/// Tuning knobs for the auditor. Defaults run every check; the directory
/// checks dominate cost (O(N log N) keyword recounts), so large-scale
/// benchmark audits can disable them separately.
struct AuditOptions {
  bool check_directories = true;
  bool check_serialization = true;
};

/// True when automatic audit wiring (test fixtures, bench_build) should run:
/// either the build defined KWSC_AUDIT (CMake -DKWSC_AUDIT=ON) or the
/// KWSC_AUDIT environment variable is set to a non-empty, non-"0" value.
/// Explicit calls into the auditor work regardless of this gate.
bool AuditEnabled();

}  // namespace audit
}  // namespace kwsc

#endif  // KWSC_AUDIT_AUDIT_H_
