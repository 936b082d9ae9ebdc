// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The dimension-reduction technique under keywords (Section 4, Theorem 2).
//
// ORP-KW in d = lambda + 1 dimensions reduces to ORP-KW in lambda dimensions
// at an O(log log N) space blow-up: a tree T is built over the x-dimension
// using f-balanced cuts whose fanout grows doubly exponentially with depth,
//   f_u = 2 * 2^(k^level(u))          (Eq. (10))
// so T has O(log log N) levels (Proposition 1). Every node stores
//   * its pivot set (the cut separators e*_1, ..., e*_{f-1}),
//   * a secondary ORP-KW index of dimension lambda over its active set
//     (ignoring the x-dimension).
// A query visits the maximal nodes whose x-range sigma(u) meets q[1]: type-1
// nodes (sigma inside q[1]) delegate to their secondary index; type-2 nodes
// (at most two per level, Figure 2) scan their O(f_u) pivots.
//
// The recursion over dimensions happens at compile time: the secondary index
// of DimRedOrpKwIndex<3> is the kd-tree index OrpKwIndex<2> of Theorem 1.

#ifndef KWSC_CORE_DIM_REDUCTION_H_
#define KWSC_CORE_DIM_REDUCTION_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/memory.h"
#include "common/ops_budget.h"
#include "common/thread_pool.h"
#include "core/balanced_cut.h"
#include "core/framework.h"
#include "core/orp_kw.h"
#include "geom/box.h"
#include "geom/point.h"
#include "text/corpus.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

/// Static shape of the dimension-reduction tree, for the Figure-2 /
/// Propositions 1-3 instrumentation (bench_dimred_shape).
struct DimRedShape {
  int levels = 0;                          // Root is level 0.
  std::vector<uint32_t> nodes_per_level;
  std::vector<uint64_t> max_fanout_per_level;
};

template <int D, typename Scalar = double>
class DimRedOrpKwIndex {
  static_assert(D >= 3, "use OrpKwIndex directly for d <= 2");

 public:
  using PointType = Point<D, Scalar>;
  using BoxType = Box<D, Scalar>;
  using Secondary = std::conditional_t<D == 3, OrpKwIndex<2, Scalar>,
                                       DimRedOrpKwIndex<D - 1, Scalar>>;
  using LowerPoint = Point<D - 1, Scalar>;
  using LowerBox = Box<D - 1, Scalar>;

  /// `pool`, when non-null, is a shared task pool (used when this index is
  /// itself a secondary of a higher-dimensional one); otherwise
  /// `options.num_threads` decides whether the build spins up its own. The
  /// built tree is identical for every thread count.
  DimRedOrpKwIndex(std::span<const PointType> points, const Corpus* corpus,
                   FrameworkOptions options, ThreadPool* pool = nullptr)
      : corpus_(corpus), options_(options),
        points_(points.begin(), points.end()) {
    KWSC_CHECK(corpus != nullptr);
    KWSC_CHECK(points.size() == corpus->num_objects());
    CheckKeywordArity(options_.k);
    if (points_.empty()) return;
    std::unique_ptr<ThreadPool> owned_pool;
    if (pool == nullptr) {
      const int threads = ResolveNumThreads(options_.num_threads);
      if (threads > 1) {
        owned_pool = std::make_unique<ThreadPool>(threads - 1);
        pool = owned_pool.get();
      }
    }
    std::vector<ObjectId> active(points_.size());
    std::iota(active.begin(), active.end(), 0);
    // Sort once by (x, id); balanced cuts preserve contiguity, so children
    // receive already-sorted slices.
    std::sort(active.begin(), active.end(), [&](ObjectId a, ObjectId b) {
      if (points_[a][0] != points_[b][0]) return points_[a][0] < points_[b][0];
      return a < b;
    });
    BuildContext ctx;
    ctx.pool = pool;
    // The doubly-exponential fanout makes even one forked level yield many
    // subtree tasks; each task also forks inside its secondary build, so
    // deep forking here would only add splice traffic.
    ctx.fork_levels = pool == nullptr ? 0 : (pool->parallelism() > 8 ? 2 : 1);
    BuildNode(active, /*level=*/0, &nodes_, &ctx);
  }

  int k() const { return options_.k; }
  size_t num_nodes() const { return nodes_.size(); }

  std::vector<ObjectId> Query(const BoxType& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr,
                              OpsBudget* budget = nullptr) const {
    std::vector<ObjectId> out;
    QueryEmit(q, keywords,
              [&out](ObjectId e) {
                out.push_back(e);
                return true;
              },
              stats, budget);
    return out;
  }

  template <typename Emit>
  void QueryEmit(const BoxType& q, std::span<const KeywordId> keywords,
                 Emit&& emit, QueryStats* stats = nullptr,
                 OpsBudget* budget = nullptr) const {
    const SortedKeywords sorted =
        CanonicalizeQueryKeywords(keywords, options_.k);
    if (nodes_.empty() || !q.Valid()) return;
    OpsBudget unlimited;
    if (budget == nullptr) budget = &unlimited;
    Visit(0, q, sorted, emit, stats, budget);
  }

  /// Budgeted threshold detection (see OrpKwIndex::ContainsAtLeast).
  bool ContainsAtLeast(const BoxType& q, std::span<const KeywordId> keywords,
                       uint64_t t, QueryStats* stats = nullptr) const {
    KWSC_CHECK(t >= 1);
    OpsBudget budget(
        ThresholdQueryBudget(corpus_->total_weight(), options_.k, t));
    uint64_t found = 0;
    QueryEmit(q, keywords,
              [&found, t](ObjectId) { return ++found < t; }, stats, &budget);
    return found >= t || budget.Exhausted();
  }

  DimRedShape Shape() const {
    DimRedShape shape;
    for (const Node& node : nodes_) {
      const int level = node.level;
      if (level + 1 > shape.levels) shape.levels = level + 1;
      if (static_cast<size_t>(level) >= shape.nodes_per_level.size()) {
        shape.nodes_per_level.resize(level + 1, 0);
        shape.max_fanout_per_level.resize(level + 1, 0);
      }
      ++shape.nodes_per_level[level];
      shape.max_fanout_per_level[level] = std::max(
          shape.max_fanout_per_level[level], node.fanout);
    }
    return shape;
  }

  size_t MemoryBytes() const {
    size_t total = VectorBytes(points_) + nodes_.capacity() * sizeof(Node);
    for (const Node& node : nodes_) {
      total += VectorBytes(node.pivots) + VectorBytes(node.children) +
               VectorBytes(node.id_map);
      if (node.sub_corpus != nullptr) total += node.sub_corpus->MemoryBytes();
      if (node.secondary != nullptr) total += node.secondary->MemoryBytes();
    }
    return total;
  }

 private:
  // The invariant auditor reads (and its tests corrupt) the node arena
  // directly; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  struct Node {
    Scalar sigma_lo{};  // Tightest x-range of the active set.
    Scalar sigma_hi{};
    std::vector<ObjectId> pivots;      // The cut separators.
    std::vector<uint32_t> children;
    // Secondary lambda-dimensional index over the active set. Leaves have
    // none (their pivot set is their whole active set).
    std::unique_ptr<Corpus> sub_corpus;
    std::unique_ptr<Secondary> secondary;
    std::vector<ObjectId> id_map;      // Secondary-local id -> global id.
    uint64_t fanout = 0;
    int16_t level = 0;
  };

  struct BuildContext {
    ThreadPool* pool = nullptr;
    int fork_levels = 0;
  };

  // Appends `sub` — a subtree arena in DFS preorder with arena-local child
  // indices — onto `arena`, rebasing the indices, and returns the subtree
  // root's index in `arena`. Splicing child arenas in group order after a
  // forked build reproduces the sequential DFS preorder exactly.
  static uint32_t SpliceArena(std::vector<Node>* arena, std::vector<Node>* sub) {
    const uint32_t base = static_cast<uint32_t>(arena->size());
    arena->reserve(arena->size() + sub->size());
    for (Node& node : *sub) {
      for (uint32_t& child : node.children) child += base;
      arena->push_back(std::move(node));
    }
    sub->clear();
    return base;
  }

  // Builds `node`'s secondary structure: a lambda-dimensional ORP-KW index
  // over the whole active set, ignoring the x-dimension. Objects are
  // renumbered locally; the sub-corpus copy is what costs the O(log log N)
  // space factor. `pool` flows into the secondary build so its subtrees fork
  // on the shared pool too.
  void BuildSecondary(std::span<const ObjectId> active, Node* node,
                      ThreadPool* pool) {
    const auto doc_of = [this](ObjectId e) {
      return corpus_->doc(e).keywords();
    };
    auto sub_corpus = std::make_unique<Corpus>(Corpus::Gather(active, doc_of));
    std::vector<LowerPoint> lower_points;
    lower_points.reserve(active.size());
    std::vector<ObjectId> id_map(active.begin(), active.end());
    for (ObjectId e : active) {
      LowerPoint p;
      for (int dim = 1; dim < D; ++dim) p[dim - 1] = points_[e][dim];
      lower_points.push_back(p);
    }
    // Parallelism flows through the shared pool only — a num_threads > 1
    // setting must not make every secondary spin up a pool of its own.
    FrameworkOptions sub_options = options_;
    sub_options.num_threads = 1;
    auto secondary = std::make_unique<Secondary>(
        std::span<const LowerPoint>(lower_points), sub_corpus.get(),
        sub_options, pool);
    node->sub_corpus = std::move(sub_corpus);
    node->secondary = std::move(secondary);
    node->id_map = std::move(id_map);
  }

  uint32_t BuildNode(std::span<const ObjectId> active, int level,
                     std::vector<Node>* arena, const BuildContext* ctx) {
    const uint32_t index = static_cast<uint32_t>(arena->size());
    arena->emplace_back();
    {
      Node& node = (*arena)[index];
      node.level = static_cast<int16_t>(level);
      node.sigma_lo = points_[active.front()][0];
      node.sigma_hi = points_[active.back()][0];
    }

    if (active.size() <= static_cast<size_t>(options_.leaf_objects)) {
      (*arena)[index].pivots.assign(active.begin(), active.end());
      return index;
    }

    const uint64_t fanout =
        FanoutForLevel(options_.k, level, /*max_fanout=*/active.size());
    const BalancedCut cut = ComputeBalancedCut(active, *corpus_, fanout);
    (*arena)[index].fanout = fanout;
    (*arena)[index].pivots = cut.separators;

    // Non-empty groups; slices of `active` remain sorted.
    std::vector<std::span<const ObjectId>> child_spans;
    for (const BalancedCut::Group& g : cut.groups) {
      if (g.begin == g.end) continue;
      child_spans.push_back(active.subspan(g.begin, g.end - g.begin));
    }

    if (ctx->pool == nullptr || level >= ctx->fork_levels) {
      BuildSecondary(active, &(*arena)[index], ctx->pool);
      std::vector<uint32_t> children;
      children.reserve(child_spans.size());
      for (std::span<const ObjectId> span : child_spans) {
        children.push_back(BuildNode(span, level + 1, arena, ctx));
      }
      (*arena)[index].children = std::move(children);
      return index;
    }

    // Fork: the secondary build and every child subtree are independent, so
    // all of them become tasks; child subtrees build into private arenas
    // spliced back in group order. The arenas vector is sized up front so
    // the pointers handed to the tasks stay stable.
    std::vector<std::vector<Node>> child_arenas(child_spans.size());
    {
      TaskGroup group(ctx->pool);
      // Stable: this thread appends nothing to `arena` until the splice.
      Node* node = &(*arena)[index];
      group.Run([this, active, node, ctx] {
        BuildSecondary(active, node, ctx->pool);
      });
      for (size_t i = 0; i < child_spans.size(); ++i) {
        group.Run([this, span = child_spans[i], level,
                   child_arena = &child_arenas[i], ctx] {
          BuildNode(span, level + 1, child_arena, ctx);
        });
      }
      group.Wait();
    }
    std::vector<uint32_t> children;
    children.reserve(child_arenas.size());
    for (std::vector<Node>& sub : child_arenas) {
      children.push_back(SpliceArena(arena, &sub));
    }
    (*arena)[index].children = std::move(children);
    return index;
  }

  template <typename Emit>
  bool Visit(uint32_t node_index, const BoxType& q,
             std::span<const KeywordId> kws, Emit& emit, QueryStats* stats,
             OpsBudget* budget) const {
    const Node& node = nodes_[node_index];
    // Disjoint x-ranges are pruned by the caller; re-check defensively.
    if (node.sigma_hi < q.lo[0] || node.sigma_lo > q.hi[0]) return true;
    if (!budget->Charge()) return Exhaust(stats);
    if (stats != nullptr) ++stats->nodes_visited;

    const bool type1 = q.lo[0] <= node.sigma_lo && node.sigma_hi <= q.hi[0];
    if (type1 && node.secondary != nullptr) {
      if (stats != nullptr) ++stats->type1_nodes;
      // Delegate dims 2..D to the secondary index; x is already satisfied.
      LowerBox lq;
      for (int dim = 1; dim < D; ++dim) {
        lq.lo[dim - 1] = q.lo[dim];
        lq.hi[dim - 1] = q.hi[dim];
      }
      bool keep_going = true;
      node.secondary->QueryEmit(
          lq, kws,
          [&](ObjectId local) {
            if (stats != nullptr) ++stats->results;
            keep_going = emit(node.id_map[local]);
            return keep_going;
          },
          stats, budget);
      if (budget->Exhausted()) return Exhaust(stats);
      return keep_going;
    }

    // Type-2 node (or a leaf): examine the pivots one by one.
    if (stats != nullptr && !type1) {
      ++stats->type2_nodes;
      if (stats->type2_per_level.size() <= static_cast<size_t>(node.level)) {
        stats->type2_per_level.resize(node.level + 1, 0);
      }
      ++stats->type2_per_level[node.level];
    }
    for (ObjectId e : node.pivots) {
      if (!budget->Charge()) return Exhaust(stats);
      if (stats != nullptr) ++stats->pivot_checks;
      if (q.Contains(points_[e]) && corpus_->ContainsAll(e, kws)) {
        if (stats != nullptr) ++stats->results;
        if (!emit(e)) return false;
      }
    }
    for (uint32_t child : node.children) {
      const Node& c = nodes_[child];
      if (c.sigma_hi < q.lo[0] || c.sigma_lo > q.hi[0]) continue;
      if (!Visit(child, q, kws, emit, stats, budget)) return false;
    }
    return true;
  }

  static bool Exhaust(QueryStats* stats) {
    if (stats != nullptr) stats->budget_exhausted = true;
    return false;
  }

  const Corpus* corpus_;
  FrameworkOptions options_;
  std::vector<PointType> points_;
  std::vector<Node> nodes_;
};

}  // namespace kwsc

#endif  // KWSC_CORE_DIM_REDUCTION_H_
