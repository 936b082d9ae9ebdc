// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "core/sp_kw_hs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/macros.h"
#include "common/memory.h"
#include "core/tree_descent.h"
#include "parttree/ham_sandwich.h"

namespace kwsc {

namespace {

// A point is "on" a cut line when its residual is within this tolerance
// (relative to the line offset). Such points join the pivot set, mirroring
// the boundary-objects rule of Appendix D.2.
double OnLineTolerance(const Halfspace<2>& line) {
  return 1e-9 * (1.0 + std::fabs(line.rhs));
}

}  // namespace

SpKwHsIndex::SpKwHsIndex(std::span<const PointType> points,
                         const Corpus* corpus, FrameworkOptions options)
    : corpus_(corpus), options_(options),
      points_(points.begin(), points.end()) {
  KWSC_CHECK(corpus != nullptr);
  KWSC_CHECK(points.size() == corpus->num_objects());
  CheckKeywordArity(options_.k);
  if (points_.empty()) return;

  // Root cell: the data bounding box, slightly expanded (stands in for R^2;
  // every query is implicitly clipped to it, which cannot lose results
  // because all objects lie inside).
  Box<2> bounds{points_[0], points_[0]};
  for (const PointType& p : points_) {
    for (int dim = 0; dim < 2; ++dim) {
      bounds.lo[dim] = std::min(bounds.lo[dim], p[dim]);
      bounds.hi[dim] = std::max(bounds.hi[dim], p[dim]);
    }
  }
  for (int dim = 0; dim < 2; ++dim) {
    const double pad = 1.0 + 0.01 * (bounds.hi[dim] - bounds.lo[dim]);
    bounds.lo[dim] -= pad;
    bounds.hi[dim] += pad;
  }

  std::vector<ObjectId> active(points_.size());
  std::iota(active.begin(), active.end(), 0);
  DirectoryBuilder builder(corpus_, options_);
  FlatDirPoolWriter pools;
  BuildNode(&active, ConvexPolygon2D::FromBox(bounds), 0, nullptr, &builder,
            &pools);
  // The pools are complete: freeze them and check every node's ranges
  // against them once, as a flat attach does; queries read them unchecked.
  pool_data_ = std::make_shared<const FlatDirPoolWriter>(std::move(pools));
  pools_ = FlatDirPoolReader(*pool_data_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    KWSC_CHECK(pools_.CheckRanges(nodes_[i], static_cast<int64_t>(i),
                                  AbortingFlatErrorSink()));
  }
}

uint64_t SpKwHsIndex::total_weight() const { return corpus_->total_weight(); }

uint32_t SpKwHsIndex::BuildNode(std::vector<ObjectId>* active,
                                ConvexPolygon2D cell, int level,
                                const std::vector<KeywordId>* inherited,
                                DirectoryBuilder* builder,
                                FlatDirPoolWriter* pools) {
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].cell = std::move(cell);
  nodes_[index].level = static_cast<int16_t>(level);

  if (active->size() <= static_cast<size_t>(options_.leaf_objects)) {
    pools->Append(builder->BuildLeaf(*active), &nodes_[index]);
    return index;
  }

  // Find the two cut lines over the active set, weighted by document size
  // (the verbose-set weighting of Section 3.2).
  std::vector<Point<2>> pts;
  std::vector<uint64_t> weights;
  pts.reserve(active->size());
  weights.reserve(active->size());
  for (ObjectId e : *active) {
    pts.push_back(points_[e]);
    weights.push_back(corpus_->doc(e).size());
  }
  const HamSandwichCut cut = FindHamSandwichCut(pts, weights);
  const double tol1 = OnLineTolerance(cut.line1);
  const double tol2 = OnLineTolerance(cut.line2);

  // Objects on either line become pivots; the rest go to the quadrant given
  // by their side of each line.
  std::vector<ObjectId> pivots;
  std::vector<std::vector<ObjectId>> child_active(kFanout);
  for (ObjectId e : *active) {
    const double f1 = cut.line1.Eval(points_[e]) - cut.line1.rhs;
    const double f2 = cut.line2.Eval(points_[e]) - cut.line2.rhs;
    if (std::fabs(f1) <= tol1 || std::fabs(f2) <= tol2) {
      pivots.push_back(e);
      continue;
    }
    const int child = (f1 > 0 ? 2 : 0) + (f2 > 0 ? 1 : 0);
    child_active[child].push_back(e);
  }

  // Defensive progress check: the weighted-median line guarantees every
  // quadrant holds strictly less weight than the node, so recursion always
  // shrinks. If numerical degeneracy ever violated this, fall back to a leaf
  // rather than recurse forever.
  for (const auto& ca : child_active) {
    if (ca.size() == active->size()) {
      pools->Append(builder->BuildLeaf(*active), &nodes_[index]);
      return index;
    }
  }

  std::vector<KeywordId> next_inherited;
  pools->Append(builder->Build(*active, child_active, inherited, pivots,
                               &next_inherited),
                &nodes_[index]);
  active->clear();
  active->shrink_to_fit();

  // Child cells: clip the parent cell by the appropriate side of each line.
  const Halfspace<2> below1 = cut.line1;
  const Halfspace<2> above1{{{-cut.line1.coeffs[0], -cut.line1.coeffs[1]}},
                            -cut.line1.rhs};
  const Halfspace<2> below2 = cut.line2;
  const Halfspace<2> above2{{{-cut.line2.coeffs[0], -cut.line2.coeffs[1]}},
                            -cut.line2.rhs};
  for (int c = 0; c < kFanout; ++c) {
    if (child_active[c].empty()) continue;
    ConvexPolygon2D child_cell = nodes_[index].cell;
    child_cell = child_cell.ClipBy((c & 2) ? above1 : below1);
    child_cell = child_cell.ClipBy((c & 1) ? above2 : below2);
    const int32_t child = static_cast<int32_t>(
        BuildNode(&child_active[c], std::move(child_cell), level + 1,
                  &next_inherited, builder, pools));
    nodes_[index].child[c] = child;
  }
  return index;
}

int SpKwHsIndex::Classify(const ConvexPolygon2D& cell, const QueryType& q) {
  bool inside = true;
  ConvexPolygon2D clipped = cell;
  for (const auto& h : q.constraints) {
    if (!cell.InsideHalfplane(h)) inside = false;
    clipped = clipped.ClipBy(h);
    if (clipped.Empty()) return 0;
  }
  return inside ? 2 : 1;
}

template <typename Emit>
void SpKwHsIndex::Descend(const QueryType& q,
                          std::span<const KeywordId> sorted_keywords,
                          Emit& emit, QueryStats* stats,
                          OpsBudget* budget) const {
  DescendTree(
      std::span<const Node>(nodes_), pools_, *corpus_, options_,
      sorted_keywords,
      [&q](const ConvexPolygon2D& cell) { return Classify(cell, q) == 2; },
      [&q](const ConvexPolygon2D& cell) { return Classify(cell, q) == 0; },
      [&](ObjectId e) { return q.Satisfies(points_[e]); }, emit, stats,
      budget);
}

std::vector<ObjectId> SpKwHsIndex::Query(const QueryType& q,
                                         std::span<const KeywordId> keywords,
                                         QueryStats* stats,
                                         OpsBudget* budget) const {
  std::vector<ObjectId> out;
  const SortedKeywords sorted =
      CanonicalizeQueryKeywords(keywords, options_.k);
  auto emit = [&out](ObjectId e) {
    out.push_back(e);
    return true;
  };
  Descend(q, sorted, emit, stats, budget);
  return out;
}

bool SpKwHsIndex::ContainsAtLeast(const QueryType& q,
                                  std::span<const KeywordId> keywords,
                                  uint64_t t, QueryStats* stats) const {
  KWSC_CHECK(t >= 1);
  const SortedKeywords sorted =
      CanonicalizeQueryKeywords(keywords, options_.k);
  // Budget per Corollary 6 (d = 2 <= k - 1 regime plus the substrate's own
  // crossing term; the constant absorbs the substitution's weaker exponent).
  OpsBudget budget(ThresholdQueryBudget(total_weight(), options_.k, t, 128.0));
  uint64_t found = 0;
  auto emit = [&found, t](ObjectId) { return ++found < t; };
  Descend(q, sorted, emit, stats, &budget);
  return found >= t || budget.Exhausted();
}

size_t SpKwHsIndex::MemoryBytes() const {
  size_t total = VectorBytes(points_) + nodes_.capacity() * sizeof(Node);
  if (pool_data_ != nullptr) total += pool_data_->MemoryBytes();
  for (const Node& node : nodes_) total += node.cell.MemoryBytes();
  return total;
}

}  // namespace kwsc
