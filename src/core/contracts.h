// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Compile-time contracts for the Section 3 framework surface.
//
// Every Table 1 family (ORP-KW, dimension reduction, RR-KW, L∞NN-KW,
// LC/SP-KW, the baselines) implements the same four-step transformation, and
// the runtime auditor verifies the *built* indexes against the paper's
// invariants. What the auditor cannot see is interface drift: a family whose
// Build/Query/SaveFlat/LoadFlat surface quietly diverges from the framework
// still compiles and only fails once a test (or a user) exercises the
// missing piece. The concepts here pin that surface at compile time —
// tests/contracts_test.cc instantiates them over every family and substrate,
// so removing or retyping a required member is a build break, not a runtime
// surprise.
//
// Mapping to the paper (Section 3; see DESIGN.md, "Static contracts"):
//   step 1 (space partitioning over the verbose set)  -> PointBuildable /
//     RectBuildable: construction from geometry + Corpus + FrameworkOptions;
//   step 2 (secondary structures T_u)                 -> MemoryAccounted
//     (the space bounds of Theorems 1/2 are asserted over this surface);
//   step 3 (query descent with budgeted scans)        -> BudgetedKwQueryable
//     and friends: QueryStats exposure plus an OpsBudget entry point (the
//     "manual termination" device of footnote 4);
//   step 4 (degeneracy removal / persistence)         -> FlatPersistable:
//     a SaveFlat/LoadFlat pair so a reloaded index is the built index
//     (byte-identity is checked at runtime by the auditor; the *presence
//     and shape* of the pair is checked here).

#ifndef KWSC_CORE_CONTRACTS_H_
#define KWSC_CORE_CONTRACTS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "audit/audit_access.h"
#include "common/flat_arena.h"
#include "common/ops_budget.h"
#include "core/framework.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

// ---------------------------------------------------------------------------
// Persistence contracts (framework step 4: the built structure, stored).
// ---------------------------------------------------------------------------

/// Index persistence: SaveFlat writes the built index as one v2 flat
/// container (common/flat_arena.h), and static LoadFlat attaches an index
/// to mapped container bytes plus the corpus it was built over (the corpus
/// is persisted separately — see Corpus::Save — and re-supplied on load).
/// The flat container is an index's only on-disk form.
template <typename T>
concept FlatPersistable =
    requires(const T& t, std::ostream* out,
             std::shared_ptr<const MmapFile> file, const Corpus* corpus) {
      { t.SaveFlat(out) } -> std::same_as<void>;
      { T::LoadFlat(file, corpus) } -> std::same_as<T>;
    };

/// Self-contained persistence (Corpus): static Load needs only the stream.
template <typename T>
concept SelfPersistable =
    requires(const T& t, std::ostream* out, std::istream* in) {
      { t.Save(out) } -> std::same_as<void>;
      { T::Load(in) } -> std::same_as<T>;
    };

// ---------------------------------------------------------------------------
// Construction contracts (framework step 1: the partition tree is built from
// geometry, the corpus, and one FrameworkOptions).
// ---------------------------------------------------------------------------

/// Buildable from one point per corpus object plus FrameworkOptions.
template <typename Index>
concept PointBuildable =
    std::constructible_from<Index,
                            std::span<const typename Index::PointType>,
                            const Corpus*, FrameworkOptions>;

/// Buildable from one rectangle per corpus object (RR-KW lifts these).
template <typename Index>
concept RectBuildable =
    std::constructible_from<Index,
                            std::span<const typename Index::RectType>,
                            const Corpus*, FrameworkOptions>;

// ---------------------------------------------------------------------------
// Query contracts (framework step 3: budgeted descent with stats exposure).
// ---------------------------------------------------------------------------

/// Exposes the construction-time keyword arity k (queries must supply
/// exactly k distinct keywords; see CanonicalizeQueryKeywords).
template <typename T>
concept ExposesArity = requires(const T& t) {
  { t.k() } -> std::same_as<int>;
};

/// Exposes its memory footprint (the surface the Theorem 1/2 space bounds
/// are measured over, in bench_space and the auditor).
template <typename T>
concept MemoryAccounted = requires(const T& t) {
  { t.MemoryBytes() } -> std::same_as<size_t>;
};

/// The uniform reporting entry point: a query region, exactly k keywords,
/// optional QueryStats, optional OpsBudget for deterministic manual
/// termination (footnote 4). `Region` is Box<D> for the kd/dim-red path and
/// ConvexQuery<D> for the partition-tree path.
template <typename Index, typename Region>
concept BudgetedKwQueryable =
    requires(const Index& index, const Region& q,
             std::span<const KeywordId> keywords, QueryStats* stats,
             OpsBudget* budget) {
      { index.Query(q, keywords, stats, budget) }
          -> std::same_as<std::vector<ObjectId>>;
    };

/// Budgeted "at least t results?" detection (Corollaries 4 and 7).
template <typename Index, typename Region>
concept ThresholdDetecting =
    requires(const Index& index, const Region& q,
             std::span<const KeywordId> keywords, uint64_t t,
             QueryStats* stats) {
      { index.ContainsAtLeast(q, keywords, t, stats) } -> std::same_as<bool>;
    };

/// Spherical reporting + detection (SRP-KW, Corollary 6): closed ball given
/// as center and squared radius.
template <typename Index>
concept BallKwQueryable =
    requires(const Index& index, const typename Index::PointType& center,
             double radius_sq, std::span<const KeywordId> keywords,
             uint64_t t, QueryStats* stats, OpsBudget* budget) {
      { index.Query(center, radius_sq, keywords, stats, budget) }
          -> std::same_as<std::vector<ObjectId>>;
      { index.ContainsAtLeast(center, radius_sq, keywords, t, stats) }
          -> std::same_as<bool>;
    };

/// t-nearest reporting (L∞NN-KW / L2NN-KW, Corollaries 5 and 7): the t
/// closest members of D(w1..wk), ordered by non-decreasing distance.
template <typename Index>
concept NearestKwQueryable =
    requires(const Index& index, const typename Index::PointType& q,
             uint64_t t, std::span<const KeywordId> keywords,
             QueryStats* stats) {
      { index.Query(q, t, keywords, stats) }
          -> std::same_as<std::vector<ObjectId>>;
    };

// ---------------------------------------------------------------------------
// The composed family contract and the audit registration contract.
// ---------------------------------------------------------------------------

/// A Table 1 index family on the reporting path: built from points under
/// FrameworkOptions, exposing k, accounting its memory, and answering
/// budgeted keyword queries over `Region`.
template <typename Index, typename Region>
concept KwIndexFamily = PointBuildable<Index> && ExposesArity<Index> &&
                        MemoryAccounted<Index> &&
                        BudgetedKwQueryable<Index, Region>;

namespace contracts_internal {
/// Emit-callback shape probe for DynamizableFamily: QueryEmit must accept a
/// callable taking the emitted ObjectId and returning bool (false stops the
/// query early).
struct DynamicEmitProbe {
  bool operator()(ObjectId) const { return true; }
};
}  // namespace contracts_internal

/// The surface core/dynamic_index.h dynamizes (any family satisfying this
/// gets batched insert/delete, background merges, and epoch-snapshot reads
/// for free). Beyond the static KwIndexFamily shape, dynamization needs the
/// family to name the *element geometry* it is built from and the *query
/// region* it answers, expose the exact region/element match predicate the
/// insertion-buffer brute scan runs (the same predicate the static index's
/// leaves apply, so buffer and level answers agree), and provide the
/// streaming QueryEmit the per-level fan-out translates ids through.
template <typename Index>
concept DynamizableFamily =
    ExposesArity<Index> && MemoryAccounted<Index> &&
    std::constructible_from<Index,
                            std::span<const typename Index::DynamicGeomType>,
                            const Corpus*, FrameworkOptions> &&
    requires(const Index& index, const typename Index::DynamicRegionType& q,
             const typename Index::DynamicGeomType& g,
             std::span<const KeywordId> keywords, QueryStats* stats,
             OpsBudget* budget) {
      { Index::MatchesRegion(q, g) } -> std::same_as<bool>;
      index.QueryEmit(q, keywords, contracts_internal::DynamicEmitProbe{},
                      stats, budget);
    };

/// Registered with the runtime auditor by befriending audit::AuditAccess and
/// exposing its nodes + options under the uniform member naming
/// (nodes_/options_): a node arena, or the node records a flat-container
/// family (ORP-KW, SP-KW-Box) reads in place. Families that wrap another family whole (RR-KW,
/// L∞NN-KW) are DelegatingAuditable instead: the auditor audits engine_.
template <typename Index>
concept DirectlyAuditable = requires(const Index& index) {
  audit::AuditAccess::NodesProbe(index);
  audit::AuditAccess::OptionsProbe(index);
};

template <typename Index>
concept DelegatingAuditable = requires(const Index& index) {
  audit::AuditAccess::EngineProbe(index);
};

template <typename Index>
concept AuditableFamily =
    DirectlyAuditable<Index> || DelegatingAuditable<Index>;

}  // namespace kwsc

#endif  // KWSC_CORE_CONTRACTS_H_
