// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "core/sp_kw_hs.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <span>

#include "common/macros.h"
#include "common/memory.h"
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
  std::vector<DirRec> recs;
  BuildNode(&active, ConvexPolygon2D::FromBox(bounds), 0, nullptr, &builder,
            &pools, &recs);
  // The pools are complete: freeze them and point each directory into them,
  // range-checked as a flat load does.
  pools_ = std::make_shared<const FlatDirPoolWriter>(std::move(pools));
  const FlatDirPoolReader reader(*pools_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FlatDirView view;
    KWSC_CHECK(reader.MakeView(recs[i], static_cast<int64_t>(i), &view,
                               AbortingFlatErrorSink()));
    nodes_[i].dir = NodeDirectory(view);
  }
}

uint64_t SpKwHsIndex::total_weight() const { return corpus_->total_weight(); }

uint32_t SpKwHsIndex::BuildNode(std::vector<ObjectId>* active,
                                ConvexPolygon2D cell, int level,
                                const std::vector<KeywordId>* inherited,
                                DirectoryBuilder* builder,
                                FlatDirPoolWriter* pools,
                                std::vector<DirRec>* recs) {
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].cell = std::move(cell);
  nodes_[index].level = static_cast<int16_t>(level);
  recs->emplace_back();

  if (active->size() <= static_cast<size_t>(options_.leaf_objects)) {
    pools->Append(builder->BuildLeaf(*active), &recs->back());
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
      pools->Append(builder->BuildLeaf(*active), &recs->back());
      return index;
    }
  }

  std::vector<KeywordId> next_inherited;
  pools->Append(builder->Build(*active, child_active, inherited, pivots,
                               &next_inherited),
                &recs->back());
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
                  &next_inherited, builder, pools, recs));
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

std::vector<ObjectId> SpKwHsIndex::Query(const QueryType& q,
                                         std::span<const KeywordId> keywords,
                                         QueryStats* stats,
                                         OpsBudget* budget) const {
  std::vector<ObjectId> out;
  const SortedKeywords sorted =
      CanonicalizeQueryKeywords(keywords, options_.k);
  if (nodes_.empty()) return out;
  OpsBudget unlimited;
  if (budget == nullptr) budget = &unlimited;
  std::function<bool(ObjectId)> emit = [&out](ObjectId e) {
    out.push_back(e);
    return true;
  };
  Visit(0, q, sorted, emit, stats, budget);
  return out;
}

bool SpKwHsIndex::ContainsAtLeast(const QueryType& q,
                                  std::span<const KeywordId> keywords,
                                  uint64_t t, QueryStats* stats) const {
  KWSC_CHECK(t >= 1);
  const SortedKeywords sorted =
      CanonicalizeQueryKeywords(keywords, options_.k);
  if (nodes_.empty()) return false;
  // Budget per Corollary 6 (d = 2 <= k - 1 regime plus the substrate's own
  // crossing term; the constant absorbs the substitution's weaker exponent).
  OpsBudget budget(ThresholdQueryBudget(total_weight(), options_.k, t, 128.0));
  uint64_t found = 0;
  std::function<bool(ObjectId)> emit = [&found, t](ObjectId) {
    return ++found < t;
  };
  Visit(0, q, sorted, emit, stats, &budget);
  return found >= t || budget.Exhausted();
}

bool SpKwHsIndex::Visit(uint32_t node_index, const QueryType& q,
                        std::span<const KeywordId> kws,
                        const std::function<bool(ObjectId)>& emit,
                        QueryStats* stats, OpsBudget* budget) const {
  const Node& node = nodes_[node_index];
  const bool covered = Classify(node.cell, q) == 2;
  if (stats != nullptr) {
    ++stats->nodes_visited;
    covered ? ++stats->covered_nodes : ++stats->crossing_nodes;
  }
  if (!budget->Charge()) return Exhaust(stats);

  for (ObjectId e : node.dir.pivots()) {
    if (!budget->Charge()) return Exhaust(stats);
    if (stats != nullptr) {
      ++stats->pivot_checks;
      covered ? ++stats->covered_work : ++stats->crossing_work;
    }
    if (q.Satisfies(points_[e]) && corpus_->ContainsAll(e, kws)) {
      if (stats != nullptr) ++stats->results;
      if (!emit(e)) return false;
    }
  }
  if (node.IsLeaf()) return true;

  uint32_t lids[kMaxQueryKeywords];
  KeywordId small_keyword = 0;
  if (!node.dir.ResolveLarge(kws, lids, &small_keyword)) {
    if (options_.enable_materialized_lists) {
      const std::optional<std::span<const ObjectId>> list =
          node.dir.MaterializedList(small_keyword);
      if (!list.has_value()) return true;
      for (ObjectId e : *list) {
        if (!budget->Charge()) return Exhaust(stats);
        if (stats != nullptr) {
          ++stats->list_scanned;
          covered ? ++stats->covered_work : ++stats->crossing_work;
        }
        if (q.Satisfies(points_[e]) && corpus_->ContainsAll(e, kws)) {
          if (stats != nullptr) ++stats->results;
          if (!emit(e)) return false;
        }
      }
      return true;
    }
    return ScanSubtree(node_index, q, kws, emit, stats, budget);
  }

  for (int c = 0; c < kFanout; ++c) {
    const int32_t child = node.child[c];
    if (child < 0) continue;
    if (options_.enable_tuple_pruning &&
        !node.dir.ChildTupleNonEmpty(c, {lids, kws.size()})) {
      if (stats != nullptr) ++stats->tuple_pruned;
      continue;
    }
    if (Classify(nodes_[child].cell, q) == 0) {
      if (stats != nullptr) ++stats->geom_pruned;
      continue;
    }
    if (!Visit(child, q, kws, emit, stats, budget)) return false;
  }
  return true;
}

bool SpKwHsIndex::ScanSubtree(uint32_t node_index, const QueryType& q,
                              std::span<const KeywordId> kws,
                              const std::function<bool(ObjectId)>& emit,
                              QueryStats* stats, OpsBudget* budget) const {
  const Node& node = nodes_[node_index];
  for (int c = 0; c < kFanout; ++c) {
    const int32_t child = node.child[c];
    if (child < 0) continue;
    if (Classify(nodes_[child].cell, q) == 0) continue;
    for (ObjectId e : nodes_[child].dir.pivots()) {
      if (!budget->Charge()) return Exhaust(stats);
      if (stats != nullptr) ++stats->list_scanned;
      if (q.Satisfies(points_[e]) && corpus_->ContainsAll(e, kws)) {
        if (stats != nullptr) ++stats->results;
        if (!emit(e)) return false;
      }
    }
    if (!ScanSubtree(child, q, kws, emit, stats, budget)) return false;
  }
  return true;
}

bool SpKwHsIndex::Exhaust(QueryStats* stats) {
  if (stats != nullptr) stats->budget_exhausted = true;
  return false;
}

size_t SpKwHsIndex::MemoryBytes() const {
  size_t total = VectorBytes(points_) + nodes_.capacity() * sizeof(Node);
  if (pools_ != nullptr) total += pools_->MemoryBytes();
  for (const Node& node : nodes_) total += node.cell.MemoryBytes();
  return total;
}

}  // namespace kwsc
