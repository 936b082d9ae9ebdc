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
// The binary search runs inside one bucket of a radix table: per dimension,
// max(1, n/8) equal-width buckets over [first, last sorted coordinate], and
// for each bucket b the first rank whose coordinate falls in a bucket >= b.
// Bucketing is monotone in the coordinate, so every lower and upper bound of
// a value lies between its bucket's start and the next one's; the answer is
// exact for every double, and a bucket holding all n points still searches
// in O(log n). On typical data a search touches the 0.5 B/object table and
// one short run of coordinates instead of ~log n cache lines of a 1 MB
// array. Nothing compares >= or <= NaN, so a NaN bound converts to an
// empty (inverted) rank range, as Box::Contains treats it.
//
// Storage is OwnedSpan-backed: the tables are owned vectors when built, and
// zero-copy views into a mapped v2 flat container after AttachFlat (the
// owning index keeps the mapping alive). The bucket tables are not
// persisted; they are rebuilt in O(n) per dimension on construction and on
// attach.

#ifndef KWSC_GEOM_RANK_SPACE_H_
#define KWSC_GEOM_RANK_SPACE_H_

#include <algorithm>
#include <array>
#include <cmath>
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
      buckets_[dim] = Buckets(sorted_coords_[dim].view());
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
  /// callers must treat as an empty query. A NaN bound admits no coordinate,
  /// so it inverts its dimension too.
  RankBox ToRankBox(const Box<D, Scalar>& box) const {
    RankBox r;
    for (int dim = 0; dim < D; ++dim) {
      const Scalar* coords = sorted_coords_[dim].data();
      const Buckets& buckets = buckets_[dim];
      const Scalar lo = box.lo[dim];
      const Scalar hi = box.hi[dim];
      // First rank whose coordinate is >= lo (std::lower_bound).
      uint32_t b = buckets.Of(lo);
      r.lo[dim] = PartitionPoint(coords, buckets.start[b],
                                 buckets.start[b + 1],
                                 [lo](Scalar c) { return c < lo; });
      // Last rank whose coordinate is <= hi (std::upper_bound, minus one).
      b = buckets.Of(hi);
      r.hi[dim] = PartitionPoint(coords, buckets.start[b],
                                 buckets.start[b + 1],
                                 [hi](Scalar c) { return !(hi < c); }) -
                  1;
      if (std::isnan(lo)) r.lo[dim] = static_cast<int64_t>(num_points_);
      if (std::isnan(hi)) r.hi[dim] = -1;
    }
    return r;
  }

  size_t MemoryBytes() const {
    size_t total = 0;
    for (int dim = 0; dim < D; ++dim) {
      total += sorted_coords_[dim].MemoryBytes() + ranks_[dim].MemoryBytes() +
               VectorBytes(buckets_[dim].start);
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
      buckets_[dim] = Buckets(sorted_coords_[dim].view());
    }
    num_points_ = num_points;
    return true;
  }

 private:
  // The first index in [first, last) whose coordinate fails `before`, or
  // `last` (std::partition_point). Each halving step selects with a
  // conditional move: a bucket's few coordinates would mispredict a branch
  // about every other step.
  template <typename Before>
  static int64_t PartitionPoint(const Scalar* coords, uint32_t first,
                                uint32_t last, Before before) {
    if (first == last) return first;
    const Scalar* base = coords + first;
    for (uint32_t n = last - first; n > 1;) {
      const uint32_t half = n / 2;
      base = before(base[half]) ? base + half : base;
      n -= half;
    }
    return (base - coords) + (before(*base) ? 1 : 0);
  }

  // The radix table over one dimension's sorted coordinates.
  struct Buckets {
    // The table over no points: one empty bucket, so a default-constructed
    // RankSpace converts every box to an empty range.
    Buckets() : Buckets(std::span<const Scalar>()) {}

    // One pass over `coords`, bucketed by the same Of() queries use. Any
    // bytes — unsorted or NaN coordinates from a file included — leave
    // `start` non-decreasing inside [0, n], so a search never leaves the
    // slab; only sorted coordinates make its answer exact.
    explicit Buckets(std::span<const Scalar> coords) {
      const size_t n = coords.size();
      const size_t count = std::max<size_t>(1, n / 8);
      last = static_cast<uint32_t>(count - 1);
      if (n > 0) {
        const double width = static_cast<double>(coords.back()) -
                             static_cast<double>(coords.front());
        // An empty, infinite or NaN extent (or one so narrow that the scale
        // overflows) leaves scale 0: one bucket holds every point.
        if (width > 0 && std::isfinite(static_cast<double>(count) / width)) {
          lo = static_cast<double>(coords.front());
          scale = static_cast<double>(count) / width;
        }
      }
      start.resize(count + 1);
      uint32_t b = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t of = Of(coords[i]);
        while (b <= of) start[b++] = static_cast<uint32_t>(i);
      }
      while (b <= last + 1) start[b++] = static_cast<uint32_t>(n);
    }

    // The bucket of `x`: (x - lo) * scale clamped to [0, last] and
    // truncated, which is monotone in x. A NaN product (NaN x, or an
    // infinite x when scale is 0) goes to bucket 0, never into the cast.
    uint32_t Of(Scalar x) const {
      const double t = (static_cast<double>(x) - lo) * scale;
      if (!(t > 0)) return 0;
      return t < last ? static_cast<uint32_t>(t) : last;
    }

    double lo = 0;
    double scale = 0;
    uint32_t last = 0;
    // start[b]: the first rank whose coordinate has Of() >= b; last + 2
    // entries, the final one n.
    std::vector<uint32_t> start;
  };

  std::array<OwnedSpan<Scalar>, D> sorted_coords_;
  std::array<OwnedSpan<int64_t>, D> ranks_;  // ranks_[dim][object id].
  std::array<Buckets, D> buckets_;
  size_t num_points_ = 0;
};

// The rank-table image embedded in flat family roots (d=2 persists).
KWSC_ABI_STRUCT_AS(RankSpaceFlatImage2, RankSpace<2>::FlatImage);

}  // namespace kwsc

#endif  // KWSC_GEOM_RANK_SPACE_H_
