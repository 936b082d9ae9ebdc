// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// RR-KW: rectangle intersection reporting with keywords (Corollary 3).
//
// A d-rectangle [a1,b1] x ... x [ad,bd] intersects the query rectangle
// [x1,y1] x ... x [xd,yd] iff the 2d-dimensional point (a1,b1,...,ad,bd)
// lies in (-inf,y1] x [x1,inf) x ... x (-inf,yd] x [xd,inf) — the classic
// interval-overlap-as-dominance trick the proof of Corollary 3 applies. The
// index therefore embeds each data rectangle as a 2d-dimensional point and
// delegates to ORP-KW: the kd-tree index for d = 1 (two lifted dimensions)
// and the dimension-reduction index for d >= 2.
//
// d = 1 is keyword search on temporal documents (lifespan intervals [7]);
// d = 2 covers minimum-bounding-rectangle geographic entities [34].

#ifndef KWSC_CORE_RR_KW_H_
#define KWSC_CORE_RR_KW_H_

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/flat_arena.h"
#include "core/dim_reduction.h"
#include "core/orp_kw.h"
#include "geom/box.h"
#include "text/corpus.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

template <int D, typename Scalar = double>
class RrKwIndex {
 public:
  static constexpr int kLiftedDim = 2 * D;
  using RectType = Box<D, Scalar>;
  // The query-region type under the name the batched engine
  // (core/query_engine.h) defaults to.
  using BoxType = RectType;
  using Engine =
      std::conditional_t<kLiftedDim <= 2, OrpKwIndex<kLiftedDim, Scalar>,
                         DimRedOrpKwIndex<kLiftedDim, Scalar>>;

  // Batch-dynamic surface (DynamizableFamily, core/contracts.h): built from
  // data rectangles, queried with rectangles; the dynamization buffer scan
  // runs the overlap test the lifted dominance query encodes.
  using DynamicGeomType = RectType;
  using DynamicRegionType = RectType;
  static bool MatchesRegion(const RectType& q, const RectType& r) {
    return q.Intersects(r);
  }

  /// Builds over one rectangle per corpus object.
  RrKwIndex(std::span<const RectType> rects, const Corpus* corpus,
            FrameworkOptions options) {
    std::vector<Point<kLiftedDim, Scalar>> lifted(rects.size());
    for (size_t i = 0; i < rects.size(); ++i) {
      for (int dim = 0; dim < D; ++dim) {
        KWSC_CHECK_MSG(rects[i].lo[dim] <= rects[i].hi[dim],
                       "data rectangle %zu inverted in dim %d", i, dim);
        lifted[i][2 * dim] = rects[i].lo[dim];
        lifted[i][2 * dim + 1] = rects[i].hi[dim];
      }
    }
    const std::span<const Point<kLiftedDim, Scalar>> points(lifted);
    if constexpr (kLiftedDim <= 2) {
      // The engine's container is the wrapper's, under the wrapper's tag.
      engine_.emplace(points, corpus, options, nullptr, kFlatFamilyTag);
    } else {
      engine_.emplace(points, corpus, options);
    }
  }

  int k() const { return engine_->k(); }

  /// Reports every data rectangle in D(w1,...,wk) intersecting `q`.
  std::vector<ObjectId> Query(const RectType& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr,
                              OpsBudget* budget = nullptr) const {
    return engine_->Query(LiftQuery(q), keywords, stats, budget);
  }

  template <typename Emit>
  void QueryEmit(const RectType& q, std::span<const KeywordId> keywords,
                 Emit&& emit, QueryStats* stats = nullptr,
                 OpsBudget* budget = nullptr) const {
    engine_->QueryEmit(LiftQuery(q), keywords, std::forward<Emit>(emit),
                       stats, budget);
  }

  size_t MemoryBytes() const { return engine_->MemoryBytes(); }

  // ---- v2 flat layout (d = 1 only, where the lifted engine is the
  // persistable OrpKwIndex<2>): the wrapper adds no state of its own, so its
  // container is the engine's container under the wrapper's family tag. ----

  static constexpr uint32_t kFlatFamilyTag = FlatFamilyTag('K', 'W', 'R', '2');

  void SaveFlat(std::ostream* out, uint32_t family_tag = kFlatFamilyTag) const
    requires(kLiftedDim <= 2)
  {
    engine_->SaveFlat(out, family_tag);
  }

  std::span<const std::byte> flat_container() const
    requires(kLiftedDim <= 2)
  {
    return engine_->flat_container();
  }

  static RrKwIndex LoadFlat(std::shared_ptr<const MmapFile> file,
                            const Corpus* corpus, uint64_t offset = 0,
                            uint32_t expected_tag = kFlatFamilyTag)
    requires(kLiftedDim <= 2)
  {
    RrKwIndex index;
    index.engine_.emplace(
        Engine::LoadFlat(std::move(file), corpus, offset, expected_tag));
    return index;
  }

  static bool ValidateFlat(const MmapFile& file, uint64_t offset,
                           uint32_t expected_tag, const FlatErrorSink& sink)
    requires(kLiftedDim <= 2)
  {
    return Engine::ValidateFlat(file, offset, expected_tag, sink);
  }

  /// The 2d-dimensional dominance box equivalent to rectangle intersection.
  static Box<kLiftedDim, Scalar> LiftQuery(const RectType& q) {
    Box<kLiftedDim, Scalar> lifted;
    for (int dim = 0; dim < D; ++dim) {
      lifted.lo[2 * dim] = std::numeric_limits<Scalar>::lowest();
      lifted.hi[2 * dim] = q.hi[dim];      // a_dim <= y_dim
      lifted.lo[2 * dim + 1] = q.lo[dim];  // b_dim >= x_dim
      lifted.hi[2 * dim + 1] = std::numeric_limits<Scalar>::max();
    }
    return lifted;
  }

 private:
  // The invariant auditor audits the lifted engine; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  // Shell constructor used by LoadFlat.
  RrKwIndex() = default;

  // Deferred construction (the lifted points must be computed first).
  std::optional<Engine> engine_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_RR_KW_H_
