// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Unit tests for src/geom: boxes, halfspaces, polygons, the lifting map, and
// the rank-space reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "common/flat_arena.h"
#include "common/random.h"
#include "geom/box.h"
#include "geom/halfspace.h"
#include "geom/lifting.h"
#include "geom/point.h"
#include "geom/polygon2d.h"
#include "geom/rank_space.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

TEST(Point, Distances) {
  Point<2> p{{0, 0}};
  Point<2> q{{3, 4}};
  EXPECT_DOUBLE_EQ(LInfDistance(p, q), 4.0);
  EXPECT_DOUBLE_EQ(L2DistanceSquared(p, q), 25.0);
}

TEST(Point, IntDistancesExact) {
  IntPoint<3> p{{1, 2, 3}};
  IntPoint<3> q{{4, 6, 3}};
  EXPECT_EQ(LInfDistance(p, q), 4);
  EXPECT_EQ(L2DistanceSquared(p, q), 9 + 16);
}

TEST(Box, ContainsIsClosed) {
  Box<2> b{{{0, 0}}, {{1, 1}}};
  EXPECT_TRUE(b.Contains({{0, 0}}));
  EXPECT_TRUE(b.Contains({{1, 1}}));
  EXPECT_TRUE(b.Contains({{0.5, 0.5}}));
  EXPECT_FALSE(b.Contains({{1.0001, 0.5}}));
}

TEST(Box, IntersectsSharedBoundaryCounts) {
  Box<2> a{{{0, 0}}, {{1, 1}}};
  Box<2> b{{{1, 1}}, {{2, 2}}};
  Box<2> c{{{1.5, 1.5}}, {{2, 2}}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(Box, InsideOf) {
  Box<2> outer{{{0, 0}}, {{10, 10}}};
  Box<2> inner{{{2, 2}}, {{3, 3}}};
  EXPECT_TRUE(inner.InsideOf(outer));
  EXPECT_FALSE(outer.InsideOf(inner));
  EXPECT_TRUE(outer.InsideOf(outer));
}

TEST(Box, EverythingContainsAnything) {
  auto b = Box<3>::Everything();
  EXPECT_TRUE(b.Contains({{1e300, -1e300, 0}}));
  EXPECT_TRUE(b.Valid());
}

TEST(Box, ValidDetectsInversion) {
  Box<2, int64_t> b{{{5, 0}}, {{4, 10}}};
  EXPECT_FALSE(b.Valid());
}

TEST(Halfspace, EvalAndSatisfies) {
  // x + 2y <= 4.
  Halfspace<2> h{{{1, 2}}, 4};
  EXPECT_TRUE(h.Satisfies({{0, 0}}));
  EXPECT_TRUE(h.Satisfies({{4, 0}}));   // Boundary is inside (<=).
  EXPECT_FALSE(h.Satisfies({{4, 1}}));
}

TEST(Halfspace, ConvexQueryConjunction) {
  ConvexQuery<2> q;
  q.constraints.push_back({{{1, 0}}, 1});    //  x <= 1
  q.constraints.push_back({{{-1, 0}}, 0});   // -x <= 0
  EXPECT_TRUE(q.Satisfies({{0.5, 99}}));
  EXPECT_FALSE(q.Satisfies({{1.5, 0}}));
  EXPECT_FALSE(q.Satisfies({{-0.5, 0}}));
}

TEST(BoxHalfspace, IntersectAndInsideTestsAgainstSampling) {
  // Property test: the corner tests agree with dense sampling of the box.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Box<2> b;
    for (int dim = 0; dim < 2; ++dim) {
      double a = rng.UniformDouble(-5, 5);
      double c = rng.UniformDouble(-5, 5);
      b.lo[dim] = std::min(a, c);
      b.hi[dim] = std::max(a, c);
    }
    Halfspace<2> h{{{rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)}},
                   rng.UniformDouble(-4, 4)};
    bool any = false;
    bool all = true;
    for (int i = 0; i <= 8; ++i) {
      for (int j = 0; j <= 8; ++j) {
        Point<2> p{{b.lo[0] + (b.hi[0] - b.lo[0]) * i / 8.0,
                    b.lo[1] + (b.hi[1] - b.lo[1]) * j / 8.0}};
        const bool in = h.Satisfies(p);
        any |= in;
        all &= in;
      }
    }
    // Sampling can only under-approximate `any`; it exactly witnesses `all`
    // corners because the grid includes them.
    if (any) {
      EXPECT_TRUE(b.IntersectsHalfspace(h));
    }
    EXPECT_EQ(b.InsideHalfspace(h), all);
  }
}

TEST(Polygon, FromBoxAreaAndContains) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{2, 3}}});
  EXPECT_DOUBLE_EQ(poly.Area(), 6.0);
  EXPECT_TRUE(poly.Contains({{1, 1}}));
  EXPECT_TRUE(poly.Contains({{0, 0}}));
  EXPECT_FALSE(poly.Contains({{2.5, 1}}));
}

TEST(Polygon, ClipByHalfplane) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{2, 2}}});
  auto clipped = poly.ClipBy({{{1, 0}}, 1});  // Keep x <= 1.
  EXPECT_NEAR(clipped.Area(), 2.0, 1e-9);
  EXPECT_TRUE(clipped.Contains({{0.5, 1}}));
  EXPECT_FALSE(clipped.Contains({{1.5, 1}}));
}

TEST(Polygon, ClipAwayEverything) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{1, 1}}});
  auto clipped = poly.ClipBy({{{1, 0}}, -5});  // x <= -5: empty.
  EXPECT_TRUE(clipped.Empty());
}

TEST(Polygon, IntersectsHalfplaneVertexRule) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{1, 1}}});
  EXPECT_TRUE(poly.IntersectsHalfplane({{{1, 0}}, 0.5}));
  EXPECT_TRUE(poly.IntersectsHalfplane({{{1, 0}}, 0.0}));   // Touches edge.
  EXPECT_FALSE(poly.IntersectsHalfplane({{{1, 0}}, -0.5}));
  EXPECT_TRUE(poly.InsideHalfplane({{{1, 0}}, 1.0}));
  EXPECT_FALSE(poly.InsideHalfplane({{{1, 0}}, 0.5}));
}

TEST(Polygon, IntersectsBox) {
  auto poly = ConvexPolygon2D::FromBox({{{0, 0}}, {{1, 1}}});
  EXPECT_TRUE(poly.IntersectsBox({{{0.5, 0.5}}, {{2, 2}}}));
  EXPECT_FALSE(poly.IntersectsBox({{{1.5, 1.5}}, {{2, 2}}}));
  EXPECT_TRUE(poly.InsideBox({{{-1, -1}}, {{2, 2}}}));
  EXPECT_FALSE(poly.InsideBox({{{0.5, -1}}, {{2, 2}}}));
}

TEST(Lifting, BallMembershipEquivalence) {
  // Property: p in B(c, r)  <=>  lifted p satisfies the lifted halfspace.
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    Point<2> p{{rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)}};
    Point<2> c{{rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)}};
    double r = rng.UniformDouble(0, 8);
    const bool in_ball = L2DistanceSquared(p, c) <= r * r;
    const auto lifted = LiftPoint(p);
    const auto h = BallToLiftedHalfspace(c, r * r);
    EXPECT_EQ(h.Satisfies(lifted), in_ball);
  }
}

TEST(Lifting, LiftPointAppendsSquaredNorm) {
  auto lifted = LiftPoint(Point<2>{{3, 4}});
  EXPECT_DOUBLE_EQ(lifted[0], 3);
  EXPECT_DOUBLE_EQ(lifted[1], 4);
  EXPECT_DOUBLE_EQ(lifted[2], 25);
}

TEST(RankSpace, DistinctRanksUnderTies) {
  // Three objects share x = 1; ranks must be distinct, ordered by id.
  std::vector<Point<2>> pts = {{{1, 5}}, {{1, 3}}, {{1, 4}}, {{0, 9}}};
  RankSpace<2> rs{std::span<const Point<2>>(pts)};
  EXPECT_EQ(rs.ToRank(3)[0], 0);  // x = 0 is smallest.
  EXPECT_EQ(rs.ToRank(0)[0], 1);  // Ties broken by id: 0 < 1 < 2.
  EXPECT_EQ(rs.ToRank(1)[0], 2);
  EXPECT_EQ(rs.ToRank(2)[0], 3);
}

TEST(RankSpace, BoxConversionPreservesResults) {
  // Property (Section 3.4): a rank-space box selects exactly the objects the
  // original box does.
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Point<2>> pts(60);
    for (auto& p : pts) {
      // Coarse grid to force many ties.
      p = {{std::floor(rng.UniformDouble(0, 6)),
            std::floor(rng.UniformDouble(0, 6))}};
    }
    RankSpace<2> rs{std::span<const Point<2>>(pts)};
    Box<2> q;
    for (int dim = 0; dim < 2; ++dim) {
      double a = rng.UniformDouble(-1, 7);
      double b = rng.UniformDouble(-1, 7);
      q.lo[dim] = std::min(a, b);
      q.hi[dim] = std::max(a, b);
    }
    const auto rq = rs.ToRankBox(q);
    for (uint32_t e = 0; e < pts.size(); ++e) {
      EXPECT_EQ(rq.Contains(rs.ToRank(e)), q.Contains(pts[e]))
          << "object " << e << " trial " << trial;
    }
  }
}

TEST(RankSpace, EmptyRangeYieldsInvertedBox) {
  std::vector<Point<1>> pts = {{{1}}, {{5}}};
  RankSpace<1> rs{std::span<const Point<1>>(pts)};
  auto rq = rs.ToRankBox({{{2}}, {{4}}});  // No coordinate inside.
  EXPECT_FALSE(rq.Valid());
}

// ---- ToRankBox's bucket table against whole-array binary search ----

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The same tables reached through a flat container, as LoadFlat does.
template <int D>
RankSpace<D> AttachedCopy(const RankSpace<D>& built, size_t n,
                          std::shared_ptr<const MmapFile>* file) {
  const uint32_t tag = FlatFamilyTag('R', 'A', 'N', 'K');
  FlatArenaWriter writer(tag);
  writer.Root(built.SaveFlatSlabs(&writer));
  std::ostringstream out;
  writer.WriteTo(&out);
  *file = MmapFile::FromBytes(out.str());
  const FlatArenaReader reader(**file, 0, tag);
  RankSpace<D> attached;
  EXPECT_TRUE(attached.AttachFlat(
      reader, reader.Root<typename RankSpace<D>::FlatImage>(), n,
      AbortingFlatErrorSink()));
  return attached;
}

// Every coordinate of the sorted `coords`, its neighbours one ulp away, the
// midpoints between consecutive coordinates, and the extreme doubles.
std::vector<double> ProbeValues(const std::vector<double>& coords) {
  std::vector<double> probes = {-kInf, kInf,   -DBL_MAX, DBL_MAX,
                                -0.0,  0.0,    -1.0,     1.0,
                                2.0,   1e-300, -1e-300,  DBL_MIN};
  for (size_t i = 0; i < coords.size(); ++i) {
    const double c = coords[i];
    probes.push_back(c);
    probes.push_back(std::nextafter(c, -kInf));
    probes.push_back(std::nextafter(c, kInf));
    if (i + 1 < coords.size() && std::isfinite(c) &&
        std::isfinite(coords[i + 1])) {
      probes.push_back(c + (coords[i + 1] - c) / 2);
    }
  }
  return probes;
}

// For every probe value x in every dimension, the rank range of [x, x]
// equals std::lower_bound/upper_bound over the whole sorted coordinate
// array, and a NaN bound gives an empty range. Checks the built tables and
// the same tables attached from a flat container.
template <int D>
void ExpectRankBoxesMatchBinarySearch(const std::vector<Point<D>>& pts) {
  const RankSpace<D> built{std::span<const Point<D>>(pts)};
  std::shared_ptr<const MmapFile> file;
  const RankSpace<D> attached = AttachedCopy(built, pts.size(), &file);
  const int64_t n = static_cast<int64_t>(pts.size());
  Box<D> open;  // [-inf, +inf] in every dimension: ranks [0, n - 1].
  for (int dim = 0; dim < D; ++dim) {
    open.lo[dim] = -kInf;
    open.hi[dim] = kInf;
  }
  for (const RankSpace<D>* rs : {&built, &attached}) {
    for (int dim = 0; dim < D; ++dim) {
      std::vector<double> coords;
      for (const Point<D>& p : pts) coords.push_back(p[dim]);
      std::sort(coords.begin(), coords.end());
      for (const double x : ProbeValues(coords)) {
        const int64_t lower =
            std::lower_bound(coords.begin(), coords.end(), x) -
            coords.begin();
        const int64_t upper =
            std::upper_bound(coords.begin(), coords.end(), x) -
            coords.begin();
        Box<D> q = open;
        q.lo[dim] = x;
        q.hi[dim] = x;
        const auto rq = rs->ToRankBox(q);
        EXPECT_EQ(rq.lo[dim], lower) << "x=" << x << " dim " << dim;
        EXPECT_EQ(rq.hi[dim], upper - 1) << "x=" << x << " dim " << dim;
        for (int other = 0; other < D; ++other) {
          if (other == dim) continue;
          EXPECT_EQ(rq.lo[other], 0);
          EXPECT_EQ(rq.hi[other], n - 1);
        }
      }
      // NaN in either bound, with the other bound open or equal to a
      // coordinate, admits nothing.
      for (const double other_bound : {kInf, coords.empty() ? 0.0 : coords[0]}) {
        Box<D> q = open;
        q.lo[dim] = kNaN;
        q.hi[dim] = other_bound;
        auto rq = rs->ToRankBox(q);
        EXPECT_GT(rq.lo[dim], rq.hi[dim]) << "NaN lo, dim " << dim;
        EXPECT_FALSE(rq.Valid());
        q.lo[dim] = -other_bound;
        q.hi[dim] = kNaN;
        rq = rs->ToRankBox(q);
        EXPECT_GT(rq.lo[dim], rq.hi[dim]) << "NaN hi, dim " << dim;
        EXPECT_FALSE(rq.Valid());
      }
    }
  }
  // The attached tables view the mapped coordinates, so the heap they are
  // charged for is the bucket tables alone: 4 bytes per bucket start.
  EXPECT_GE(attached.MemoryBytes(),
            D * sizeof(uint32_t) * (std::max<size_t>(1, pts.size() / 8) + 1));
}

template <int D>
std::vector<Point<D>> PointsFromCoords(const std::vector<double>& values) {
  std::vector<Point<D>> pts(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    for (int dim = 0; dim < D; ++dim) {
      // Each dimension sees the values in another order.
      pts[i][dim] = values[(i * (dim + 1) + dim) % values.size()];
    }
  }
  return pts;
}

TEST(RankSpaceBuckets, SmallCounts) {
  for (const size_t n : {0, 1, 7, 8, 9, 17}) {
    SCOPED_TRACE(n);
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = 0.25 * double(i % 5) - 0.1;
    ExpectRankBoxesMatchBinarySearch<1>(PointsFromCoords<1>(values));
    ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(values));
  }
}

TEST(RankSpaceBuckets, AllEqualCoordinates) {
  const std::vector<double> values(100, 0.5);
  ExpectRankBoxesMatchBinarySearch<1>(PointsFromCoords<1>(values));
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(values));
}

TEST(RankSpaceBuckets, DenseClusterAndOneFarOutlier) {
  // n - 1 points share the first bucket; the search there is a plain binary
  // search over them.
  std::vector<double> values;
  for (int i = 0; i < 199; ++i) values.push_back(0.5 + 1e-12 * i);
  values.push_back(1e6);
  ExpectRankBoxesMatchBinarySearch<1>(PointsFromCoords<1>(values));
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(values));
}

TEST(RankSpaceBuckets, PilesAtBothEnds) {
  // The generators clamp to [0, 1], which piles points on both ends.
  Rng rng(71);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(std::clamp(rng.UniformDouble(-0.5, 1.5), 0.0, 1.0));
  }
  ExpectRankBoxesMatchBinarySearch<1>(PointsFromCoords<1>(values));
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(values));
}

TEST(RankSpaceBuckets, InfinitiesExtremesAndSignedZeros) {
  const std::vector<double> extremes = {-kInf, kInf, -DBL_MAX, DBL_MAX,
                                        -0.0,  0.0,  -DBL_MIN, 1e-310};
  std::vector<double> values = extremes;
  for (int i = 0; i < 40; ++i) values.push_back(0.01 * i);
  ExpectRankBoxesMatchBinarySearch<1>(PointsFromCoords<1>(values));
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(values));
  // Extremes alone, and the finite extremes alone (their width overflows).
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>(extremes));
  ExpectRankBoxesMatchBinarySearch<2>(
      PointsFromCoords<2>({-DBL_MAX, DBL_MAX, 0.0, 1.0, -1.0}));
  ExpectRankBoxesMatchBinarySearch<2>(PointsFromCoords<2>({-0.0, 0.0, -0.0}));
}

TEST(RankSpaceBuckets, RandomClusteredPoints) {
  Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextBounded(400);
    SCOPED_TRACE(n);
    const auto pts = GeneratePoints<2>(n, PointDistribution::kClustered, &rng,
                                       -rng.UniformDouble(0, 1e3),
                                       rng.UniformDouble(0, 1e3));
    ExpectRankBoxesMatchBinarySearch<2>(pts);
    std::vector<Point<1>> line(n);
    for (size_t i = 0; i < n; ++i) line[i][0] = pts[i][1];
    ExpectRankBoxesMatchBinarySearch<1>(line);
  }
}

}  // namespace
}  // namespace kwsc
