// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared test helpers: brute-force reference implementations of every query
// the library answers. Each index test compares against these oracles over
// randomized inputs.

#ifndef KWSC_TESTS_TEST_UTIL_H_
#define KWSC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/index_auditor.h"
#include "geom/box.h"
#include "geom/halfspace.h"
#include "geom/point.h"
#include "gtest/gtest.h"
#include "text/corpus.h"

namespace kwsc {
namespace testing {

/// Runs the paper-invariant auditor over a built index and fails the test
/// with the full violation report when any check fires. Gated on
/// audit::AuditEnabled() (the KWSC_AUDIT compile definition or environment
/// variable) so the default build keeps its test runtime; the asan preset
/// and CI enable it everywhere.
template <typename Index>
void ExpectAuditClean(const Index& index) {
  if (!audit::AuditEnabled()) return;
  const audit::AuditReport report = audit::AuditIndex(index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// Substrate variants (kd-tree / interval tree have their own entry points).
template <int D, typename Scalar>
void ExpectAuditClean(const KdTree<D, Scalar>& tree) {
  if (!audit::AuditEnabled()) return;
  const audit::AuditReport report = audit::AuditKdTree(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

template <typename Scalar>
void ExpectAuditClean(const IntervalTree<Scalar>& tree) {
  if (!audit::AuditEnabled()) return;
  const audit::AuditReport report = audit::AuditIntervalTree(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// The index's v2 flat container as bytes: the one on-disk form, and the
/// bytes every determinism check (parallel build, Compact(), round trips)
/// compares.
template <typename Index>
std::string SaveFlatToBytes(const Index& index) {
  std::ostringstream out;
  index.SaveFlat(&out);
  return out.str();
}

/// Objects in `q` whose documents contain all keywords, ascending by id.
template <int D, typename Scalar>
std::vector<ObjectId> BruteBox(std::span<const Point<D, Scalar>> points,
                               const Corpus& corpus, const Box<D, Scalar>& q,
                               std::span<const KeywordId> keywords) {
  std::vector<ObjectId> out;
  for (ObjectId e = 0; e < points.size(); ++e) {
    if (q.Contains(points[e]) && corpus.ContainsAll(e, keywords)) {
      out.push_back(e);
    }
  }
  return out;
}

template <int D, typename Scalar>
std::vector<ObjectId> BruteConvex(std::span<const Point<D, Scalar>> points,
                                  const Corpus& corpus,
                                  const ConvexQuery<D, Scalar>& q,
                                  std::span<const KeywordId> keywords) {
  std::vector<ObjectId> out;
  for (ObjectId e = 0; e < points.size(); ++e) {
    if (q.Satisfies(points[e]) && corpus.ContainsAll(e, keywords)) {
      out.push_back(e);
    }
  }
  return out;
}

template <int D, typename Scalar>
std::vector<ObjectId> BruteBall(std::span<const Point<D, Scalar>> points,
                                const Corpus& corpus,
                                const Point<D, Scalar>& center,
                                double radius_sq,
                                std::span<const KeywordId> keywords) {
  std::vector<ObjectId> out;
  for (ObjectId e = 0; e < points.size(); ++e) {
    if (static_cast<double>(L2DistanceSquared(points[e], center)) <=
            radius_sq &&
        corpus.ContainsAll(e, keywords)) {
      out.push_back(e);
    }
  }
  return out;
}

template <int D, typename Scalar>
std::vector<ObjectId> BruteRects(std::span<const Box<D, Scalar>> rects,
                                 const Corpus& corpus,
                                 const Box<D, Scalar>& q,
                                 std::span<const KeywordId> keywords) {
  std::vector<ObjectId> out;
  for (ObjectId e = 0; e < rects.size(); ++e) {
    if (rects[e].Intersects(q) && corpus.ContainsAll(e, keywords)) {
      out.push_back(e);
    }
  }
  return out;
}

/// t nearest matches by `distance` (ties by id), the oracle for both NN
/// problems.
template <int D, typename Scalar, typename DistanceFn>
std::vector<ObjectId> BruteNearest(std::span<const Point<D, Scalar>> points,
                                   const Corpus& corpus,
                                   const Point<D, Scalar>& q, uint64_t t,
                                   std::span<const KeywordId> keywords,
                                   DistanceFn&& distance) {
  std::vector<ObjectId> matches;
  for (ObjectId e = 0; e < points.size(); ++e) {
    if (corpus.ContainsAll(e, keywords)) matches.push_back(e);
  }
  std::sort(matches.begin(), matches.end(), [&](ObjectId a, ObjectId b) {
    const auto da = distance(points[a], q);
    const auto db = distance(points[b], q);
    if (da != db) return da < db;
    return a < b;
  });
  if (matches.size() > t) matches.resize(t);
  return matches;
}

/// Sorted copy (indexes may emit in tree order; oracles emit by id).
inline std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Distance multisets are compared instead of ids when ties at the t-th
/// distance make the id set ambiguous.
template <int D, typename Scalar, typename DistanceFn>
std::vector<double> DistanceProfile(std::span<const Point<D, Scalar>> points,
                                    const Point<D, Scalar>& q,
                                    std::span<const ObjectId> ids,
                                    DistanceFn&& distance) {
  std::vector<double> out;
  out.reserve(ids.size());
  for (ObjectId e : ids) {
    out.push_back(static_cast<double>(distance(points[e], q)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testing
}  // namespace kwsc

#endif  // KWSC_TESTS_TEST_UTIL_H_
