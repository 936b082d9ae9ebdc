// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// L∞NN-KW: t-nearest-neighbour under the L∞ metric with keywords
// (Corollary 4).
//
// The proof of Corollary 4 turns an ORP-KW index into a nearest-neighbour
// index with two devices, both implemented here:
//   1. The *candidate radii*: the L∞ distance from q to its t-th closest
//      match is always a per-dimension coordinate difference |e[j] - q[j]|,
//      of which there are only d * |D|. The smallest radius r* whose L∞ ball
//      B(q, r*) holds >= t matches is found by binary search on the rank of
//      the candidate radius, with per-dimension sorted coordinate arrays
//      standing in for the paper's d binary search trees.
//   2. The *budgeted threshold test*: "does B(q,r) ∩ D(w1..wk) have >= t
//      objects" runs a reporting query under an operation budget of
//      O(N^{1-1/k} t^{1/k}); exhausting the budget certifies "yes"
//      (footnote 4 / DESIGN.md substitution 3).
// Total query cost: O(log N) threshold tests — the paper's
// O(N^{1-1/k} * t^{1/k} * log N).

#ifndef KWSC_CORE_NN_LINF_H_
#define KWSC_CORE_NN_LINF_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "core/dim_reduction.h"
#include "core/framework.h"
#include "core/orp_kw.h"
#include "geom/box.h"
#include "geom/point.h"
#include "text/corpus.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

template <int D, typename Scalar = double>
class LinfNnIndex {
 public:
  using PointType = Point<D, Scalar>;
  using Engine = std::conditional_t<D <= 2, OrpKwIndex<D, Scalar>,
                                    DimRedOrpKwIndex<D, Scalar>>;

  LinfNnIndex(std::span<const PointType> points, const Corpus* corpus,
              FrameworkOptions options) {
    points_.Assign(std::vector<PointType>(points.begin(), points.end()));
    engine_.emplace(points_.view(), corpus, options);
    for (int dim = 0; dim < D; ++dim) {
      std::vector<Scalar> coords;
      coords.reserve(points_.size());
      for (const PointType& p : points_) coords.push_back(p[dim]);
      std::sort(coords.begin(), coords.end());
      sorted_coords_[dim].Assign(std::move(coords));
    }
  }

  int k() const { return engine_->k(); }

  /// Returns (up to) t objects of D(w1..wk) closest to `q` under L∞,
  /// ordered by non-decreasing distance. Fewer than t are returned only when
  /// D(w1..wk) itself has fewer members.
  std::vector<ObjectId> Query(const PointType& q, uint64_t t,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr) const {
    KWSC_CHECK(t >= 1);
    if (points_.empty()) return {};

    // Binary search over the rank of the candidate radius: the smallest
    // candidate r with >= t matches inside B(q, r).
    const uint64_t num_candidates =
        static_cast<uint64_t>(points_.size()) * D;
    uint64_t lo = 1;
    uint64_t hi = num_candidates;
    double best_radius = CandidateRadiusByRank(q, num_candidates);
    bool any_at_best = engine_->ContainsAtLeast(BallBox(q, best_radius),
                                               keywords, t, stats);
    if (!any_at_best) {
      // Fewer than t matches exist in total: report everything, sorted.
      return FinishQuery(q, best_radius, t, keywords, stats);
    }
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      const double r = CandidateRadiusByRank(q, mid);
      if (engine_->ContainsAtLeast(BallBox(q, r), keywords, t, stats)) {
        hi = mid;
        best_radius = r;
      } else {
        lo = mid + 1;
      }
    }
    return FinishQuery(q, best_radius, t, keywords, stats);
  }

  size_t MemoryBytes() const {
    size_t total = engine_->MemoryBytes() + points_.MemoryBytes();
    for (int dim = 0; dim < D; ++dim) {
      total += sorted_coords_[dim].MemoryBytes();
    }
    return total;
  }

  // ---- Persistence (d <= 2 engines only, i.e. where Engine is OrpKwIndex;
  // the dimension-reduction engine rebuilds quickly enough that persisting
  // its per-node sub-corpora is not worth the disk footprint). The v2 flat
  // layout: this wrapper's own container (points plus the per-dimension
  // candidate-radius arrays) followed immediately by the wrapped ORP-KW
  // engine's container. Both are padded to the alignment quantum, so the
  // engine's offset stays 64-byte aligned. ----

  static constexpr uint32_t kFlatFamilyTag = FlatFamilyTag('K', 'W', 'N', '2');

  struct FlatRoot {
    uint32_t dim;
    uint32_t reserved;
    uint64_t num_points;
    SlabRef points;             // Point<D, Scalar>
    SlabRef sorted_coords[D];   // Scalar, ascending per dimension
  };

  void SaveFlat(std::ostream* out, uint32_t family_tag = kFlatFamilyTag) const
    requires(D <= 2)
  {
    FlatArenaWriter writer(family_tag);
    FlatRoot root;
    std::memset(static_cast<void*>(&root), 0, sizeof(root));  // padding must be deterministic
    root.dim = static_cast<uint32_t>(D);
    root.num_points = points_.size();
    root.points = writer.Slab(points_.view());
    for (int dim = 0; dim < D; ++dim) {
      root.sorted_coords[dim] = writer.Slab(sorted_coords_[dim].view());
    }
    writer.Root(root);
    writer.WriteTo(out);
    engine_->SaveFlat(out);
  }

  static LinfNnIndex LoadFlat(std::shared_ptr<const MmapFile> file,
                              const Corpus* corpus, uint64_t offset = 0,
                              uint32_t expected_tag = kFlatFamilyTag)
    requires(D <= 2)
  {
    KWSC_CHECK(file != nullptr);
    const FlatArenaReader reader(*file, offset, expected_tag);
    const FlatRoot& root = reader.template Root<FlatRoot>();
    KWSC_CHECK_MSG(root.dim == static_cast<uint32_t>(D),
                   "index dimensionality mismatch");
    LinfNnIndex index{PrivateTag{}};
    KWSC_CHECK(reader.SlabOk<PointType>(root.points) &&
               root.points.count == root.num_points);
    index.points_.Attach(reader.Slab<PointType>(root.points));
    for (int dim = 0; dim < D; ++dim) {
      KWSC_CHECK(reader.SlabOk<Scalar>(root.sorted_coords[dim]) &&
                 root.sorted_coords[dim].count == root.num_points);
      index.sorted_coords_[dim].Attach(
          reader.Slab<Scalar>(root.sorted_coords[dim]));
    }
    index.engine_.emplace(
        Engine::LoadFlat(file, corpus, offset + reader.total_bytes()));
    index.mmap_ = std::move(file);
    return index;
  }

  static bool ValidateFlat(const MmapFile& file, uint64_t offset,
                           uint32_t expected_tag, const FlatErrorSink& sink)
    requires(D <= 2)
  {
    if (!FlatArenaReader::Validate(file, offset, expected_tag, sink)) {
      return false;
    }
    const FlatArenaReader reader(file, offset, expected_tag);
    if (!reader.RootOk<FlatRoot>()) {
      sink("flat root size mismatch for family");
      return false;
    }
    const FlatRoot& root = reader.template Root<FlatRoot>();
    if (root.dim != static_cast<uint32_t>(D)) {
      sink("flat root dimensionality mismatch");
      return false;
    }
    bool ok = true;
    if (!reader.SlabOk<PointType>(root.points) ||
        root.points.count != root.num_points) {
      sink("flat point slab out of bounds or cardinality mismatch");
      ok = false;
    }
    for (int dim = 0; dim < D; ++dim) {
      if (!reader.SlabOk<Scalar>(root.sorted_coords[dim]) ||
          root.sorted_coords[dim].count != root.num_points) {
        sink("flat sorted-coordinate slab out of bounds or cardinality "
             "mismatch");
        ok = false;
        continue;
      }
      const auto coords = reader.Slab<Scalar>(root.sorted_coords[dim]);
      for (size_t i = 1; i < coords.size(); ++i) {
        if (coords[i - 1] > coords[i]) {
          sink("flat candidate-radius array not sorted");
          ok = false;
          break;
        }
      }
    }
    if (!Engine::ValidateFlat(file, offset + reader.total_bytes(),
                              Engine::kFlatFamilyTag, sink)) {
      ok = false;
    }
    return ok;
  }

  /// The i-th smallest candidate radius (1-based rank), i.e. the i-th
  /// smallest value among { |c - q[j]| : c a data coordinate in dim j }.
  /// Exposed for tests of the selection substrate.
  double CandidateRadiusByRank(const PointType& q, uint64_t rank) const {
    KWSC_DCHECK(rank >= 1);
    // Bisection on the radius value, then an exact snap to the smallest
    // candidate that preserves the count. CandidateCount is monotone in r.
    double lo = 0.0;
    double hi = 0.0;
    for (int dim = 0; dim < D; ++dim) {
      const auto& coords = sorted_coords_[dim];
      hi = std::max({hi, std::fabs(static_cast<double>(coords.front()) -
                                   static_cast<double>(q[dim])),
                     std::fabs(static_cast<double>(coords.back()) -
                               static_cast<double>(q[dim]))});
    }
    if (CandidateCount(q, lo) >= rank) return lo;
    for (int iter = 0; iter < 64 && lo < hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;  // Converged to machine precision.
      if (CandidateCount(q, mid) >= rank) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    // Snap: the answer is the smallest candidate value > lo.
    return SmallestCandidateAbove(q, lo);
  }

  /// Number of candidate radii <= r (counting multiplicity across dims).
  uint64_t CandidateCount(const PointType& q, double r) const {
    uint64_t count = 0;
    for (int dim = 0; dim < D; ++dim) {
      const auto& coords = sorted_coords_[dim];
      const double qd = static_cast<double>(q[dim]);
      auto lo_it = std::lower_bound(coords.begin(), coords.end(), qd - r);
      auto hi_it = std::upper_bound(coords.begin(), coords.end(), qd + r);
      count += static_cast<uint64_t>(hi_it - lo_it);
    }
    return count;
  }

 private:
  // The invariant auditor audits the wrapped engine; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  Box<D, Scalar> BallBox(const PointType& q, double r) const {
    Box<D, Scalar> box;
    for (int dim = 0; dim < D; ++dim) {
      box.lo[dim] = static_cast<Scalar>(static_cast<double>(q[dim]) - r);
      box.hi[dim] = static_cast<Scalar>(static_cast<double>(q[dim]) + r);
    }
    return box;
  }

  double SmallestCandidateAbove(const PointType& q, double r) const {
    double best = std::numeric_limits<double>::infinity();
    for (int dim = 0; dim < D; ++dim) {
      const auto& coords = sorted_coords_[dim];
      const double qd = static_cast<double>(q[dim]);
      // Candidates > r on the right: first coordinate > qd + r.
      auto right = std::upper_bound(coords.begin(), coords.end(), qd + r);
      if (right != coords.end()) {
        best = std::min(best, static_cast<double>(*right) - qd);
      }
      // Candidates > r on the left: last coordinate < qd - r.
      auto left = std::lower_bound(coords.begin(), coords.end(), qd - r);
      if (left != coords.begin()) {
        best = std::min(best, qd - static_cast<double>(*(left - 1)));
      }
    }
    return std::isfinite(best) ? best : r;
  }

  std::vector<ObjectId> FinishQuery(const PointType& q, double radius,
                                    uint64_t t,
                                    std::span<const KeywordId> keywords,
                                    QueryStats* stats) const {
    std::vector<ObjectId> matches =
        engine_->Query(BallBox(q, radius), keywords, stats);
    std::sort(matches.begin(), matches.end(), [&](ObjectId a, ObjectId b) {
      const auto da = LInfDistance(points_[a], q);
      const auto db = LInfDistance(points_[b], q);
      if (da != db) return da < db;
      return a < b;
    });
    if (matches.size() > t) matches.resize(t);
    return matches;
  }

  struct PrivateTag {};
  explicit LinfNnIndex(PrivateTag) {}

  // Owned after a build; zero-copy views into mmap_ after LoadFlat.
  OwnedSpan<PointType> points_;
  std::array<OwnedSpan<Scalar>, D> sorted_coords_;
  std::optional<Engine> engine_;
  std::shared_ptr<const MmapFile> mmap_;
};

// The persisted d=2 instantiation: the KWN2 flat root (FORMATS.lock locks
// its layout under format linf-nn).
KWSC_ABI_STRUCT_AS(LinfNnFlatRoot2, LinfNnIndex<2>::FlatRoot);

}  // namespace kwsc

#endif  // KWSC_CORE_NN_LINF_H_
