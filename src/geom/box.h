// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Axis-parallel d-rectangles (the paper's footnote 1), used both as query
// ranges (ORP-KW, RR-KW) and as kd-tree cells.

#ifndef KWSC_GEOM_BOX_H_
#define KWSC_GEOM_BOX_H_

#include <limits>

#include "common/abi.h"
#include "common/macros.h"
#include "geom/halfspace.h"
#include "geom/point.h"

namespace kwsc {

/// Closed axis-parallel box [lo[0], hi[0]] x ... x [lo[D-1], hi[D-1]].
template <int D, typename Scalar = double>
struct Box {
  using PointType = Point<D, Scalar>;

  PointType lo;
  PointType hi;

  /// The whole space: every coordinate range is [-inf, +inf] (or the full
  /// integer range for integral scalars).
  static Box Everything() {
    Box b;
    for (int i = 0; i < D; ++i) {
      b.lo[i] = std::numeric_limits<Scalar>::lowest();
      b.hi[i] = std::numeric_limits<Scalar>::max();
    }
    return b;
  }

  /// True iff the box is non-degenerate in every dimension (lo <= hi).
  bool Valid() const {
    for (int i = 0; i < D; ++i) {
      if (lo[i] > hi[i]) return false;
    }
    return true;
  }

  // The three containment predicates accumulate per-dimension verdicts with
  // `&` instead of short-circuiting: D is a small compile-time constant, so
  // the loop fully unrolls into straight-line compares with no unpredictable
  // branch — these run once per tree node on the query descent, where a
  // mispredict costs more than the spared comparisons ever save. The descent
  // reaches them through its substrate lambdas, so they are forced inline.

  KWSC_ALWAYS_INLINE bool Contains(const PointType& p) const {
    bool inside = true;
    for (int i = 0; i < D; ++i) {
      inside &= (p[i] >= lo[i]) & (p[i] <= hi[i]);
    }
    return inside;
  }

  /// True iff the closed boxes share at least one point.
  KWSC_ALWAYS_INLINE bool Intersects(const Box& other) const {
    bool overlaps = true;
    for (int i = 0; i < D; ++i) {
      overlaps &= (other.hi[i] >= lo[i]) & (other.lo[i] <= hi[i]);
    }
    return overlaps;
  }

  /// True iff this box lies entirely inside `other` (covered-node test).
  KWSC_ALWAYS_INLINE bool InsideOf(const Box& other) const {
    bool inside = true;
    for (int i = 0; i < D; ++i) {
      inside &= (lo[i] >= other.lo[i]) & (hi[i] <= other.hi[i]);
    }
    return inside;
  }

  /// True iff any point of the box satisfies the halfspace. The minimizing
  /// corner of the linear functional decides.
  bool IntersectsHalfspace(const Halfspace<D, Scalar>& h) const {
    double value = 0;
    for (int i = 0; i < D; ++i) {
      value += h.coeffs[i] * static_cast<double>(h.coeffs[i] >= 0 ? lo[i] : hi[i]);
    }
    return value <= static_cast<double>(h.rhs);
  }

  /// True iff every point of the box satisfies the halfspace (maximizing
  /// corner decides).
  bool InsideHalfspace(const Halfspace<D, Scalar>& h) const {
    double value = 0;
    for (int i = 0; i < D; ++i) {
      value += h.coeffs[i] * static_cast<double>(h.coeffs[i] >= 0 ? hi[i] : lo[i]);
    }
    return value <= static_cast<double>(h.rhs);
  }

  friend bool operator==(const Box& a, const Box& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Boxes are the cell payload of flat node records (FlatNodeRec<CellT>); the
// d=2 instantiations (double cells and rank-space int64 cells) persist.
KWSC_ABI_STRUCT_AS(BoxD2, Box<2>);
KWSC_ABI_STRUCT_AS(BoxI2, Box<2, int64_t>);

}  // namespace kwsc

#endif  // KWSC_GEOM_BOX_H_
