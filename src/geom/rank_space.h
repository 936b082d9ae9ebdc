// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Rank-space reduction (Section 3.4 of the paper).
//
// The kd-tree conversion assumes general position: no two objects share an
// x- or y-coordinate. The paper removes the assumption by sorting the objects
// on each dimension, breaking ties by object id, and working with ranks. A
// query rectangle converts to a rank rectangle in O(log N) per dimension
// (binary search on the sorted coordinates) without changing its result set.
//
// Storage is OwnedSpan-backed: the tables are owned vectors when built, and
// zero-copy views into a mapped v2 flat container after AttachFlat (the
// owning index keeps the mapping alive).

#ifndef KWSC_GEOM_RANK_SPACE_H_
#define KWSC_GEOM_RANK_SPACE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "common/memory.h"
#include "geom/box.h"
#include "geom/point.h"

namespace kwsc {

/// Maps D-dimensional points with arbitrary (possibly duplicated) coordinates
/// to distinct integer ranks per dimension, and original-space query boxes to
/// rank-space boxes with identical result sets.
template <int D, typename Scalar = double>
class RankSpace {
 public:
  using RankPoint = Point<D, int64_t>;
  using RankBox = Box<D, int64_t>;

  /// Slab references of one rank table inside a flat container.
  struct FlatImage {
    SlabRef sorted_coords[D];
    SlabRef ranks[D];
  };

  RankSpace() = default;

  /// Builds rank tables over `points`; point i belongs to object id i.
  explicit RankSpace(std::span<const Point<D, Scalar>> points) {
    const size_t n = points.size();
    std::vector<uint32_t> order(n);
    for (int dim = 0; dim < D; ++dim) {
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (points[a][dim] != points[b][dim]) {
          return points[a][dim] < points[b][dim];
        }
        return a < b;  // Ties broken by object id (Section 3.4).
      });
      std::vector<Scalar> sorted(n);
      std::vector<int64_t> ranks(n);
      for (size_t pos = 0; pos < n; ++pos) {
        sorted[pos] = points[order[pos]][dim];
        ranks[order[pos]] = static_cast<int64_t>(pos);
      }
      sorted_coords_[dim].Assign(std::move(sorted));
      ranks_[dim].Assign(std::move(ranks));
    }
    num_points_ = n;
  }

  size_t num_points() const { return num_points_; }

  /// The rank-space image of object `id`.
  RankPoint ToRank(uint32_t id) const {
    RankPoint p;
    for (int dim = 0; dim < D; ++dim) p[dim] = ranks_[dim][id];
    return p;
  }

  /// Converts an original-space closed box to rank space. The result may be
  /// inverted (lo > hi) in a dimension when no coordinate falls inside, which
  /// callers must treat as an empty query.
  RankBox ToRankBox(const Box<D, Scalar>& box) const {
    RankBox r;
    for (int dim = 0; dim < D; ++dim) {
      const auto& coords = sorted_coords_[dim];
      // First rank whose coordinate is >= box.lo[dim].
      r.lo[dim] = static_cast<int64_t>(
          std::lower_bound(coords.begin(), coords.end(), box.lo[dim]) -
          coords.begin());
      // Last rank whose coordinate is <= box.hi[dim].
      r.hi[dim] = static_cast<int64_t>(
                      std::upper_bound(coords.begin(), coords.end(),
                                       box.hi[dim]) -
                      coords.begin()) -
                  1;
    }
    return r;
  }

  size_t MemoryBytes() const {
    size_t total = 0;
    for (int dim = 0; dim < D; ++dim) {
      total += sorted_coords_[dim].MemoryBytes() + ranks_[dim].MemoryBytes();
    }
    return total;
  }

  /// Writes both tables as flat slabs and returns their references.
  FlatImage SaveFlatSlabs(FlatArenaWriter* writer) const {
    FlatImage image;
    for (int dim = 0; dim < D; ++dim) {
      image.sorted_coords[dim] = writer->Slab(sorted_coords_[dim].view());
      image.ranks[dim] = writer->Slab(ranks_[dim].view());
    }
    return image;
  }

  /// Re-points the tables at mapped slabs. Returns false (after sinking a
  /// message) on a bounds or cardinality mismatch.
  bool AttachFlat(const FlatArenaReader& reader, const FlatImage& image,
                  uint64_t num_points, const FlatErrorSink& sink) {
    for (int dim = 0; dim < D; ++dim) {
      if (!reader.SlabOk<Scalar>(image.sorted_coords[dim]) ||
          !reader.SlabOk<int64_t>(image.ranks[dim]) ||
          image.sorted_coords[dim].count != num_points ||
          image.ranks[dim].count != num_points) {
        sink("flat rank-space slab out of bounds or cardinality mismatch");
        return false;
      }
      sorted_coords_[dim].Attach(reader.Slab<Scalar>(image.sorted_coords[dim]));
      ranks_[dim].Attach(reader.Slab<int64_t>(image.ranks[dim]));
    }
    num_points_ = num_points;
    return true;
  }

 private:
  std::array<OwnedSpan<Scalar>, D> sorted_coords_;
  std::array<OwnedSpan<int64_t>, D> ranks_;  // ranks_[dim][object id].
  size_t num_points_ = 0;
};

// The rank-table image embedded in flat family roots (d=2 persists).
KWSC_ABI_STRUCT_AS(RankSpaceFlatImage2, RankSpace<2>::FlatImage);

}  // namespace kwsc

#endif  // KWSC_GEOM_RANK_SPACE_H_
