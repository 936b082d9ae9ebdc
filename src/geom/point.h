// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Fixed-dimension points.
//
// The dimensionality d is a compile-time constant in the paper ("where d >= 1
// is a constant"), so points are std::array-backed templates: Point<2> for
// the hotel example, Point<3> for lifted spherical queries, IntPoint<d> for
// the integer grids of L2NN-KW (Corollary 7).

#ifndef KWSC_GEOM_POINT_H_
#define KWSC_GEOM_POINT_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "common/abi.h"

namespace kwsc {

template <int D, typename Scalar = double>
struct Point {
  static_assert(D >= 1, "dimension must be positive");
  using ScalarType = Scalar;
  static constexpr int kDim = D;

  std::array<Scalar, D> coords{};

  Scalar& operator[](int i) { return coords[i]; }
  const Scalar& operator[](int i) const { return coords[i]; }

  friend bool operator==(const Point& a, const Point& b) {
    return a.coords == b.coords;
  }
};

template <int D>
using IntPoint = Point<D, int64_t>;

/// L-infinity distance: max over dimensions of |p[i] - q[i]| (footnote 2).
template <int D, typename Scalar>
Scalar LInfDistance(const Point<D, Scalar>& p, const Point<D, Scalar>& q) {
  Scalar best = 0;
  for (int i = 0; i < D; ++i) {
    Scalar diff = p[i] >= q[i] ? p[i] - q[i] : q[i] - p[i];
    if (diff > best) best = diff;
  }
  return best;
}

/// Squared Euclidean distance. For IntPoint the result is exact in int64_t
/// provided coordinates fit in ~31 bits, which the generators enforce.
template <int D, typename Scalar>
Scalar L2DistanceSquared(const Point<D, Scalar>& p, const Point<D, Scalar>& q) {
  Scalar total = 0;
  for (int i = 0; i < D; ++i) {
    Scalar diff = p[i] - q[i];
    total += diff * diff;
  }
  return total;
}

// Points are slab element types in every flat family container (and in the
// dynamic checkpoint's geometry slab); the d=2 instantiations are the
// persisted ones.
KWSC_ABI_STRUCT_AS(PointD2, Point<2>);
KWSC_ABI_STRUCT_AS(PointI2, Point<2, int64_t>);

}  // namespace kwsc

#endif  // KWSC_GEOM_POINT_H_
