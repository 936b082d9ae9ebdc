// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// SP-KW over the 2-D ham-sandwich partition tree (Appendix D, d = 2).
//
// The substrate follows the partition-tree requirements of Appendix D.1:
// convex cells that cover their points, children partitioning the parent's
// cell, and |P_u| = O(N / f^level). Each node cuts its cell with two lines
// (parttree/ham_sandwich.h) into four children; objects landing *on* a cut
// line form the pivot set — the same boundary/interior distinction that
// defines active and pivot sets in Section 3.2 / Appendix D.2. Any query
// line crosses at most three of the four children, which is what bounds the
// crossing sensitivity (Appendix D.3; measured by bench_crossing). Queries
// run the framework descent (core/tree_descent.h) with the polygon-cell
// tests. The index has no flat container: its node records and directory
// pools live in memory.

#ifndef KWSC_CORE_SP_KW_HS_H_
#define KWSC_CORE_SP_KW_HS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ops_budget.h"
#include "core/flat_format.h"
#include "core/framework.h"
#include "core/node_directory.h"
#include "geom/halfspace.h"
#include "geom/point.h"
#include "geom/polygon2d.h"
#include "text/corpus.h"

namespace kwsc {

class SpKwHsIndex {
 public:
  using PointType = Point<2>;
  using QueryType = ConvexQuery<2>;

  /// Builds over `points` (one per corpus object). `corpus` must outlive the
  /// index.
  SpKwHsIndex(std::span<const PointType> points, const Corpus* corpus,
              FrameworkOptions options);

  int k() const { return options_.k; }
  size_t num_nodes() const { return nodes_.size(); }
  uint64_t total_weight() const;

  /// Reports every object satisfying all constraints of `q` whose document
  /// contains all k keywords.
  std::vector<ObjectId> Query(const QueryType& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr,
                              OpsBudget* budget = nullptr) const;

  /// Budgeted threshold detection, as in SpKwBoxIndex::ContainsAtLeast.
  bool ContainsAtLeast(const QueryType& q,
                       std::span<const KeywordId> keywords, uint64_t t,
                       QueryStats* stats = nullptr) const;

  size_t MemoryBytes() const;

 private:
  static constexpr int kFanout = 4;

  // A node record for the framework descent: the polygon cell, the child
  // slots and level, and the directory's ranges in the pools — a flat node
  // record's pool fields (FlatDirPoolWriter::Append fills them), with a
  // tuple slot per child.
  struct Node {
    ConvexPolygon2D cell;
    int32_t child[kFanout] = {-1, -1, -1, -1};
    int16_t level = 0;
    uint16_t num_children = 0;
    uint32_t pivot_count = 0, large_count = 0, mat_count = 0,
             tuple_count[kFanout] = {};
    uint64_t weight = 0, pivot_begin = 0, large_begin = 0, mat_begin = 0,
             tuple_begin[kFanout] = {};
  };

  uint32_t BuildNode(std::vector<ObjectId>* active, ConvexPolygon2D cell,
                     int level, const std::vector<KeywordId>* inherited,
                     DirectoryBuilder* builder, FlatDirPoolWriter* pools);

  // 0 = disjoint, 1 = crossing, 2 = cell inside the query region.
  static int Classify(const ConvexPolygon2D& cell, const QueryType& q);

  template <typename Emit>
  void Descend(const QueryType& q, std::span<const KeywordId> sorted_keywords,
               Emit& emit, QueryStats* stats, OpsBudget* budget) const;

  const Corpus* corpus_;
  FrameworkOptions options_;
  std::vector<PointType> points_;
  std::vector<Node> nodes_;
  // The directory pools the nodes index, immutable and shared so a copied
  // or moved index keeps `pools_`'s spans valid, and the reader over them.
  std::shared_ptr<const FlatDirPoolWriter> pool_data_;
  FlatDirPoolReader pools_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_SP_KW_HS_H_
