// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Compile-time enforcement of the Section 3 framework contracts
// (core/contracts.h) over every index family and substrate in the library.
//
// Nearly everything here is a static_assert: the test "runs" by compiling.
// Each assertion names the family and the contract it must keep, so removing
// a required member (a SaveFlat, a budget parameter, a stats out-param) from
// any family breaks this translation unit with a message pointing at the
// violated paper step rather than deep inside a caller. The negative block
// at the bottom proves the concepts actually discriminate — a type missing
// SaveFlat, or with a LoadFlat of the wrong shape, is rejected — which is
// what the try_compile harness in tests/negative_compile/ re-checks from a
// clean translation unit.

#include "core/contracts.h"

#include <concepts>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "baseline/ir_tree.h"
#include "baseline/keywords_only.h"
#include "baseline/structured_only.h"
#include "core/appendix_g.h"
#include "core/dim_reduction.h"
#include "core/dynamic_index.h"
#include "core/lc_kw.h"
#include "core/nn_l2.h"
#include "core/nn_l2_approx.h"
#include "core/nn_linf.h"
#include "core/node_directory.h"
#include "core/orp_kw.h"
#include "core/query_engine.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "core/sp_kw_hs.h"
#include "core/srp_kw.h"
#include "geom/rank_space.h"
#include "kdtree/interval_tree.h"
#include "kdtree/kd_tree.h"
#include "ksi/framework_ksi.h"
#include "ksi/naive_ksi.h"
#include "parttree/ham_sandwich.h"
#include "text/corpus.h"

namespace kwsc {
namespace {

// ---------------------------------------------------------------------------
// ORP-KW (Theorem 1): the kd-path reference family. Full surface: build,
// budgeted box queries, threshold detection, persistence, audit arena.
// ---------------------------------------------------------------------------
template <int D>
using OrpBox = Box<D, double>;

static_assert(KwIndexFamily<OrpKwIndex<1>, OrpBox<1>>);
static_assert(KwIndexFamily<OrpKwIndex<2>, OrpBox<2>>);
static_assert(KwIndexFamily<OrpKwIndex<3>, OrpBox<3>>);
static_assert(ThresholdDetecting<OrpKwIndex<2>, OrpBox<2>>);
static_assert(FlatPersistable<OrpKwIndex<1>>);
static_assert(FlatPersistable<OrpKwIndex<2>>);
static_assert(FlatPersistable<OrpKwIndex<3>>);
static_assert(DirectlyAuditable<OrpKwIndex<2>>);
static_assert(AuditableFamily<OrpKwIndex<2>>);

// ---------------------------------------------------------------------------
// Dimension reduction (Theorem 2): same query surface in d >= 3; the
// doubly-exponential tree holds per-node sub-corpora, so it is deliberately
// not persistable (rebuilds are cheap relative to its disk image).
// ---------------------------------------------------------------------------
static_assert(KwIndexFamily<DimRedOrpKwIndex<3>, OrpBox<3>>);
static_assert(KwIndexFamily<DimRedOrpKwIndex<4>, OrpBox<4>>);
static_assert(ThresholdDetecting<DimRedOrpKwIndex<3>, OrpBox<3>>);
static_assert(!FlatPersistable<DimRedOrpKwIndex<3>>);
static_assert(DirectlyAuditable<DimRedOrpKwIndex<3>>);

// ---------------------------------------------------------------------------
// RR-KW (Corollary 3): rectangles lift into a wrapped engine; the family is
// rect-buildable, box-queryable, and audits by delegation to that engine.
// ---------------------------------------------------------------------------
static_assert(RectBuildable<RrKwIndex<1>>);
static_assert(RectBuildable<RrKwIndex<2>>);
static_assert(BudgetedKwQueryable<RrKwIndex<1>, OrpBox<1>>);
static_assert(BudgetedKwQueryable<RrKwIndex<2>, OrpBox<2>>);
static_assert(ExposesArity<RrKwIndex<2>> && MemoryAccounted<RrKwIndex<2>>);
static_assert(DelegatingAuditable<RrKwIndex<2>>);
static_assert(AuditableFamily<RrKwIndex<2>>);
// Persistence exists exactly where the lifted engine is the kd-path.
static_assert(FlatPersistable<RrKwIndex<1>>);
static_assert(!FlatPersistable<RrKwIndex<2>>);
// Rectangles are not points: the point-build contract must not claim RR-KW.
static_assert(!PointBuildable<RrKwIndex<2>> ||
                  std::same_as<RrKwIndex<2>::RectType,
                               Box<2, double>>,  // RectType doubles as BoxType
              "RR-KW builds from rectangles");

// ---------------------------------------------------------------------------
// Batch-dynamic layer (core/dynamic_index.h): any family exposing the
// DynamizableFamily surface — span-construction, a static region/geometry
// match predicate, and an emit-functor query — plugs into DynamicIndex.
// Three structurally different families prove the concept generalizes:
// points-in-boxes, points-in-halfspace-conjunctions, rect-rect intersection.
// ---------------------------------------------------------------------------
static_assert(DynamizableFamily<OrpKwIndex<1>>);
static_assert(DynamizableFamily<OrpKwIndex<2>>);
static_assert(DynamizableFamily<OrpKwIndex<3>>);
static_assert(DynamizableFamily<SpKwBoxIndex<2>>);
static_assert(DynamizableFamily<RrKwIndex<1>>);
static_assert(DynamizableFamily<RrKwIndex<2>>);
// The dimension-reduction tree has QueryEmit but names no DynamicGeomType or
// DynamicRegionType and has no MatchesRegion, so it is deliberately outside
// the dynamization contract (rebuild it instead).
static_assert(!DynamizableFamily<DimRedOrpKwIndex<3>>);

// A KWDY checkpoint stores each level's flat container and attaches it on
// load, so only FlatPersistable families checkpoint: RR-KW<2> dynamizes
// but has no flat form, and its DynamicIndex has no SaveCheckpoint or
// LoadCheckpoint.
template <typename Dynamic>
concept Checkpointable =
    requires(const Dynamic& d, std::ostream* out, std::istream* in) {
      d.SaveCheckpoint(out);
      {
        Dynamic::LoadCheckpoint(in)
      } -> std::same_as<std::unique_ptr<Dynamic>>;
    };
static_assert(Checkpointable<DynamicIndex<OrpKwIndex<2>>>);
static_assert(Checkpointable<DynamicIndex<SpKwBoxIndex<2>>>);
static_assert(Checkpointable<DynamicIndex<RrKwIndex<1>>>);
static_assert(!Checkpointable<DynamicIndex<RrKwIndex<2>>>);

// ---------------------------------------------------------------------------
// L∞NN-KW (Corollary 5) and L2NN-KW (Corollary 7): t-nearest surface.
// Persistence exists exactly where the engine is the kd-path (D <= 2).
// ---------------------------------------------------------------------------
static_assert(PointBuildable<LinfNnIndex<2>>);
static_assert(NearestKwQueryable<LinfNnIndex<2>>);
static_assert(MemoryAccounted<LinfNnIndex<2>> && ExposesArity<LinfNnIndex<2>>);
static_assert(FlatPersistable<LinfNnIndex<2>>);
static_assert(NearestKwQueryable<LinfNnIndex<3>>);
static_assert(!FlatPersistable<LinfNnIndex<3>>);
static_assert(DelegatingAuditable<LinfNnIndex<2>>);

static_assert(PointBuildable<L2NnIndex<2>>);
static_assert(NearestKwQueryable<L2NnIndex<2>>);
static_assert(MemoryAccounted<L2NnIndex<2>> && ExposesArity<L2NnIndex<2>>);
static_assert(FlatPersistable<L2NnIndex<2>>);

static_assert(PointBuildable<ApproxL2NnIndex<2>>);
static_assert(NearestKwQueryable<ApproxL2NnIndex<2>>);
static_assert(MemoryAccounted<ApproxL2NnIndex<2>>);

// ---------------------------------------------------------------------------
// LC/SP-KW (Theorem 5, Corollary 6): the partition-tree path. Box substrate
// persists; the ham-sandwich substrate (2D) shares the exact query surface.
// LcKwIndex<D> must select the right substrate per dimension.
// ---------------------------------------------------------------------------
static_assert(KwIndexFamily<SpKwBoxIndex<2>, ConvexQuery<2>>);
static_assert(KwIndexFamily<SpKwBoxIndex<3>, ConvexQuery<3>>);
static_assert(ThresholdDetecting<SpKwBoxIndex<2>, ConvexQuery<2>>);
static_assert(FlatPersistable<SpKwBoxIndex<2>>);
static_assert(DirectlyAuditable<SpKwBoxIndex<2>>);

static_assert(KwIndexFamily<SpKwHsIndex, ConvexQuery<2>>);
static_assert(ThresholdDetecting<SpKwHsIndex, ConvexQuery<2>>);

static_assert(std::same_as<LcKwIndex<2>, SpKwHsIndex>);
static_assert(std::same_as<LcKwIndex<3>, SpKwBoxIndex<3>>);
static_assert(KwIndexFamily<LcKwIndex<3>, ConvexQuery<3>>);

// ---------------------------------------------------------------------------
// SRP-KW (Corollary 6): spherical surface over the lifted box substrate.
// ---------------------------------------------------------------------------
static_assert(PointBuildable<SrpKwIndex<2>>);
static_assert(BallKwQueryable<SrpKwIndex<2>>);
static_assert(MemoryAccounted<SrpKwIndex<2>> && ExposesArity<SrpKwIndex<2>>);
static_assert(FlatPersistable<SrpKwIndex<2>>);
static_assert(DelegatingAuditable<SrpKwIndex<2>>);

// ---------------------------------------------------------------------------
// Dynamic ORP-KW (logarithmic method): built empty from options, queried
// without a budget (each level charges its own); memory-accounted.
// ---------------------------------------------------------------------------
static_assert(std::constructible_from<DynamicIndex<OrpKwIndex<2>>,
                                      FrameworkOptions>);
static_assert(MemoryAccounted<DynamicIndex<OrpKwIndex<2>>>);
static_assert(requires(const DynamicIndex<OrpKwIndex<2>>& index,
                       const OrpBox<2>& q, std::span<const KeywordId> kws,
                       QueryStats* stats) {
  { index.Query(q, kws, stats) } -> std::same_as<std::vector<ObjectId>>;
});

// ---------------------------------------------------------------------------
// Baselines (Section 5 comparisons): not framework families — no OpsBudget,
// BaselineStats instead of QueryStats — but the space-accounting contract
// still binds, and their query shapes are pinned so bench code stays stable.
// ---------------------------------------------------------------------------
static_assert(MemoryAccounted<IrTree<2>>);
static_assert(requires(const IrTree<2>& tree, const OrpBox<2>& q,
                       std::span<const KeywordId> kws, BaselineStats* stats) {
  { tree.Query(q, kws, stats) } -> std::same_as<std::vector<ObjectId>>;
});

static_assert(MemoryAccounted<KeywordsOnlyBaseline<2>>);
static_assert(MemoryAccounted<KeywordsOnlyRectBaseline<2>>);
static_assert(MemoryAccounted<StructuredOnlyBaseline<2>>);
static_assert(requires(const KeywordsOnlyBaseline<2>& b, const OrpBox<2>& q,
                       std::span<const KeywordId> kws, BaselineStats* stats) {
  { b.QueryBox(q, kws, stats) } -> std::same_as<std::vector<ObjectId>>;
});
static_assert(requires(const StructuredOnlyBaseline<2>& b, const OrpBox<2>& q,
                       std::span<const KeywordId> kws, BaselineStats* stats) {
  { b.QueryBox(q, kws, stats) } -> std::same_as<std::vector<ObjectId>>;
});

// ---------------------------------------------------------------------------
// KSI (Section 2 reduction): the framework instance and the naive control.
// ---------------------------------------------------------------------------
static_assert(MemoryAccounted<FrameworkKsi> && ExposesArity<FrameworkKsi>);
static_assert(requires(const FrameworkKsi& ksi,
                       std::span<const KeywordId> sets, QueryStats* stats) {
  { ksi.Report(sets, stats) } -> std::same_as<std::vector<int64_t>>;
  { ksi.Empty(sets, stats) } -> std::same_as<bool>;
});
static_assert(MemoryAccounted<NaiveKsi>);
static_assert(requires(const NaiveKsi& ksi, std::span<const KeywordId> sets) {
  { ksi.Report(sets) } -> std::same_as<std::vector<int64_t>>;
  { ksi.Empty(sets) } -> std::same_as<bool>;
});

// ---------------------------------------------------------------------------
// Substrates: kd-tree, interval tree, node directory, rank space, corpus.
// ---------------------------------------------------------------------------
static_assert(MemoryAccounted<KdTree<2>>);
static_assert(
    std::constructible_from<KdTree<2>, std::span<const Point<2, double>>,
                            int>);
static_assert(MemoryAccounted<IntervalTree<double>>);
static_assert(std::constructible_from<IntervalTree<double>,
                                      std::span<const Box<1, double>>>);

// Partition-tree substrate (src/parttree/): the weighted ham-sandwich cut
// the halfspace variant splits with (Theorem 5's two-line partition).
static_assert(std::is_aggregate_v<HamSandwichCut>);
static_assert(std::same_as<decltype(HamSandwichCut{}.line1), Halfspace<2>>);
static_assert(std::same_as<decltype(HamSandwichCut{}.line2), Halfspace<2>>);
static_assert(
    std::same_as<decltype(FindHamSandwichCut(
                     std::declval<std::span<const Point<2>>>(),
                     std::declval<std::span<const uint64_t>>())),
                 HamSandwichCut>);

static_assert(MemoryAccounted<RankSpace<2, double>>);

static_assert(SelfPersistable<Corpus>);
static_assert(MemoryAccounted<Corpus>);
// The corpus persists as a stream that needs nothing else; an index needs
// its corpus back. Neither contract claims the other's types.
static_assert(!FlatPersistable<Corpus>);
static_assert(!SelfPersistable<OrpKwIndex<2>>);

// The batched engine accepts any box-queryable family.
static_assert(std::constructible_from<QueryEngine<OrpKwIndex<2>>,
                                      const OrpKwIndex<2>*, int>);
static_assert(std::constructible_from<QueryEngine<OrpKwIndex<2>>,
                                      const OrpKwIndex<2>*,
                                      const FrameworkOptions&>);

// ---------------------------------------------------------------------------
// Negative space: the concepts must reject malformed surfaces, not just
// accept the real ones. Each Bad* type below differs from a conforming type
// by exactly the defect named in its comment.
// ---------------------------------------------------------------------------

struct Conforming {
  void SaveFlat(std::ostream* out) const;
  static Conforming LoadFlat(std::shared_ptr<const MmapFile> file,
                             const Corpus* corpus);
};
static_assert(FlatPersistable<Conforming>);

// Missing SaveFlat entirely.
struct BadNoSave {
  static BadNoSave LoadFlat(std::shared_ptr<const MmapFile> file,
                            const Corpus* corpus);
};
static_assert(!FlatPersistable<BadNoSave>);

// SaveFlat exists but is not const-callable.
struct BadMutableSave {
  void SaveFlat(std::ostream* out);
  static BadMutableSave LoadFlat(std::shared_ptr<const MmapFile> file,
                                 const Corpus* corpus);
};
static_assert(!FlatPersistable<BadMutableSave>);

// SaveFlat takes the wrong stream direction (asymmetric pair).
struct BadSaveStream {
  void SaveFlat(std::istream* in) const;
  static BadSaveStream LoadFlat(std::shared_ptr<const MmapFile> file,
                                const Corpus* corpus);
};
static_assert(!FlatPersistable<BadSaveStream>);

// LoadFlat returns the wrong type: the caller would never get the index.
struct BadLoadReturn {
  void SaveFlat(std::ostream* out) const;
  static int LoadFlat(std::shared_ptr<const MmapFile> file,
                      const Corpus* corpus);
};
static_assert(!FlatPersistable<BadLoadReturn>);

// LoadFlat without the corpus: an index cannot answer without it.
struct BadLoadWithoutCorpus {
  void SaveFlat(std::ostream* out) const;
  static BadLoadWithoutCorpus LoadFlat(std::shared_ptr<const MmapFile> file);
};
static_assert(!FlatPersistable<BadLoadWithoutCorpus>);

// A query entry point without the OpsBudget parameter is not budgeted.
struct BadUnbudgetedQuery {
  std::vector<ObjectId> Query(const Box<2, double>& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats) const;
};
static_assert(!BudgetedKwQueryable<BadUnbudgetedQuery, Box<2, double>>);

// Wrong result type (ids must be ObjectId, not raw offsets).
struct BadQueryResult {
  std::vector<int64_t> Query(const Box<2, double>& q,
                             std::span<const KeywordId> keywords,
                             QueryStats* stats, OpsBudget* budget) const;
};
static_assert(!BudgetedKwQueryable<BadQueryResult, Box<2, double>>);

// Not registered with the auditor: no friend declaration, no probe access.
struct BadUnaudited {
  std::vector<int> nodes_;  // Public member of the right name is not enough
  int options_ = 0;         // to make the family *auditable by the auditor*;
};                          // but the probes do see public members, so this
// type is (vacuously) directly-auditable. The real negative is a type with
// no such members at all:
struct BadNoArena {};
static_assert(DirectlyAuditable<BadUnaudited>);
static_assert(!DirectlyAuditable<BadNoArena>);
static_assert(!AuditableFamily<BadNoArena>);
static_assert(!DelegatingAuditable<BadNoArena>);

// ---------------------------------------------------------------------------
// A single runtime test so the binary registers with ctest; the real
// verification happened at compile time above.
// ---------------------------------------------------------------------------
TEST(Contracts, CompileTimeAssertionsHold) { SUCCEED(); }

}  // namespace
}  // namespace kwsc
