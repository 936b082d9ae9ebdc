// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// ORP-KW: orthogonal range reporting with keywords (Theorem 1, Section 3).
//
// The index applies the paper's transformation framework to a kd-tree:
//   * coordinates are reduced to rank space (Section 3.4), which removes all
//     degeneracies — every object has distinct integer coordinates per
//     dimension;
//   * the tree splits by *document weight* (the verbose-set construction of
//     Section 3.2: an object counts |e.Doc| times), so N_u = O(N / 2^level);
//   * the object whose coordinate defines the split line becomes the node's
//     pivot set (it lies on the boundary of both child cells);
//   * each node carries its directory T_u (core/node_directory.h):
//     large-keyword table, per-child non-empty k-tuple registry, and
//     materialized lists.
//
// A query runs the framework descent (core/tree_descent.h) over the node
// records with the rank-space cell and point tests: it descends from the
// root while all k keywords remain large, pruning children whose cells miss
// the query rectangle or whose k-tuple intersection is empty; at the first
// node where a keyword turns small it scans that keyword's materialized list
// (size < N_u^{1-1/k}) and stops. Query time is O(N^{1-1/k} (1 + OUT^{1/k}))
// for d <= 2 (Theorem 1).
//
// The same code runs for any constant d; for d >= 3 the crossing-sensitivity
// guarantee weakens (Section 3.5) and core/dim_reduction.h restores it.

#ifndef KWSC_CORE_ORP_KW_H_
#define KWSC_CORE_ORP_KW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "common/memory.h"
#include "common/ops_budget.h"
#include "common/thread_pool.h"
#include "core/flat_format.h"
#include "core/framework.h"
#include "core/node_directory.h"
#include "core/tree_descent.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/rank_space.h"
#include "text/corpus.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

template <int D, typename Scalar = double>
class OrpKwIndex {
 public:
  using PointType = Point<D, Scalar>;
  using BoxType = Box<D, Scalar>;
  using RankBox = Box<D, int64_t>;

  // Batch-dynamic surface (DynamizableFamily, core/contracts.h): built from
  // points, queried with boxes; the dynamization buffer scan runs the same
  // containment test the static leaves apply.
  using DynamicGeomType = PointType;
  using DynamicRegionType = BoxType;
  static bool MatchesRegion(const BoxType& q, const PointType& p) {
    return q.Contains(p);
  }

  /// Builds the index over `points` (one per corpus object, same order).
  /// `corpus` must outlive the index.
  ///
  /// `pool`, when non-null, is a shared task pool the build forks subtree
  /// tasks onto (the dimension-reduction index builds its secondaries this
  /// way); otherwise `options.num_threads` decides whether the build spins
  /// up its own. The built index — including its SaveFlat bytes — is
  /// identical for every thread count.
  /// The build writes the flat container once and attaches it through
  /// LoadFlat; `family_tag` names it, as LoadFlat's `expected_tag` does.
  OrpKwIndex(std::span<const PointType> points, const Corpus* corpus,
             FrameworkOptions options, ThreadPool* pool = nullptr,
             uint32_t family_tag = kFlatFamilyTag)
      : corpus_(corpus), options_(options), rank_(points) {
    KWSC_CHECK(corpus != nullptr);
    KWSC_CHECK_MSG(points.size() == corpus->num_objects(),
                   "points (%zu) and corpus (%zu) disagree", points.size(),
                   corpus->num_objects());
    CheckKeywordArity(options_.k);
    std::vector<Point<D, int64_t>> rank_points(points.size());
    for (uint32_t e = 0; e < points.size(); ++e) {
      rank_points[e] = rank_.ToRank(e);
    }
    rank_points_.Attach(rank_points);
    BuildArena arena;
    if (!points.empty()) {
      std::unique_ptr<ThreadPool> owned_pool;
      if (pool == nullptr) {
        const int threads = ResolveNumThreads(options_.num_threads);
        if (threads > 1) {
          owned_pool = std::make_unique<ThreadPool>(threads - 1);
          pool = owned_pool.get();
        }
      }
      Build(pool, &arena);
    }
    *this = LoadFlat(SaveFlat(arena, family_tag), corpus, 0, family_tag);
    // The container round-trips every persisted field; the execution
    // knobs it does not store stay the caller's.
    options_ = options;
  }

  int k() const { return options_.k; }
  uint64_t total_weight() const { return corpus_->total_weight(); }
  size_t num_nodes() const { return nodes_.size(); }
  const Corpus& corpus() const { return *corpus_; }

  /// Reports q ∩ D(w1,...,wk). `keywords` must hold exactly k distinct
  /// keywords.
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

  /// Streaming variant; `emit` returns false to stop the query early.
  template <typename Emit>
  void QueryEmit(const BoxType& q, std::span<const KeywordId> keywords,
                 Emit&& emit, QueryStats* stats = nullptr,
                 OpsBudget* budget = nullptr) const {
    const SortedKeywords sorted =
        CanonicalizeQueryKeywords(keywords, options_.k);
    const RankBox rq = rank_.ToRankBox(q);
    QueryRankEmit(rq, sorted, emit, stats, budget);
  }

  /// Query already expressed in rank space (used by the RR-KW reduction and
  /// by tests exercising Section 3.4 directly). `sorted_keywords` must be
  /// sorted and distinct.
  template <typename Emit>
  void QueryRankEmit(const RankBox& rq,
                     std::span<const KeywordId> sorted_keywords, Emit&& emit,
                     QueryStats* stats = nullptr,
                     OpsBudget* budget = nullptr) const {
    if (!rq.Valid()) return;
    DescendTree(
        nodes_, pools_, *corpus_, options_, sorted_keywords,
        [rq](const RankBox& cell) { return cell.InsideOf(rq); },
        [rq](const RankBox& cell) { return !cell.Intersects(rq); },
        [rq, points = rank_points_.view()](ObjectId e) {
          return rq.Contains(points[e]);
        },
        emit, stats, budget);
  }

  /// "Does q ∩ D(w1,...,wk) have at least t objects?" — the budgeted
  /// detection primitive of Corollary 4's proof: run a reporting query; if it
  /// exceeds its worst-case budget for output size t, the answer must be yes.
  bool ContainsAtLeast(const BoxType& q, std::span<const KeywordId> keywords,
                       uint64_t t, QueryStats* stats = nullptr) const {
    KWSC_CHECK(t >= 1);
    OpsBudget budget(ThresholdQueryBudget(total_weight(), options_.k, t));
    uint64_t found = 0;
    QueryEmit(q, keywords,
              [&found, t](ObjectId) { return ++found < t; }, stats, &budget);
    return found >= t || budget.Exhausted();
  }

  /// Emptiness query in O(N^{1-1/k}) expected work: run a reporting query
  /// under the OUT = 0 budget; exhausting it certifies non-emptiness
  /// (footnote 4 of the paper).
  bool Empty(const BoxType& q, std::span<const KeywordId> keywords,
             QueryStats* stats = nullptr) const {
    OpsBudget budget(ThresholdQueryBudget(total_weight(), options_.k, 1));
    bool witness = false;
    QueryEmit(q, keywords,
              [&witness](ObjectId) {
                witness = true;
                return false;
              },
              stats, &budget);
    return !witness && !budget.Exhausted();
  }

  /// |q ∩ D(w1,...,wk)| by full enumeration (counting cannot do better than
  /// reporting in this framework; the paper never claims otherwise).
  uint64_t Count(const BoxType& q, std::span<const KeywordId> keywords,
                 QueryStats* stats = nullptr) const {
    uint64_t count = 0;
    QueryEmit(q, keywords, [&count](ObjectId) {
      ++count;
      return true;
    }, stats);
    return count;
  }

  /// Converts an original-space box to rank space (exposed for reductions).
  RankBox ToRankBox(const BoxType& q) const { return rank_.ToRankBox(q); }

  /// Rank-space image of an object's point.
  const Point<D, int64_t>& RankPointOf(ObjectId e) const {
    return rank_points_[e];
  }

  /// The rank tables' bucket index, and the container when it lives on the
  /// heap (a build's, or bytes read rather than mapped).
  size_t MemoryBytes() const {
    const bool heap = mmap_ != nullptr && !mmap_->used_mmap();
    return rank_.MemoryBytes() + (heap ? container_.size() : 0);
  }

  /// Maximum node level (root = 0); the analysis expects O(log N).
  int Depth() const {
    int depth = 0;
    for (const auto& node : nodes_) depth = std::max(depth, int{node.level});
    return depth;
  }

  // ---- Persistence: the v2 flat layout (common/flat_arena.h; DESIGN.md
  // "On-disk layout v2") is the index's only on-disk form and its only
  // in-memory form. A build writes one offset-addressed container; LoadFlat
  // attaches one — header/structure validation, one pass over the object-id
  // pools and one over the node records — and builds nothing: queries read
  // the rank tables, rank points, node records and directory pools in
  // place. SaveFlat writes the held bytes. The corpus is saved separately
  // (Corpus::Save) and supplied again on LoadFlat; the object count and
  // weight guard against a mismatch. ----

  static constexpr uint32_t kFlatFamilyTag = FlatFamilyTag('K', 'W', 'O', '2');

  /// The flat root POD. Wrapper families reuse the container verbatim under
  /// their own family tag, so the tag is a parameter below.
  struct FlatRoot {
    uint32_t dim;
    uint32_t reserved;
    PersistedFrameworkOptions options;
    uint64_t num_objects;
    uint64_t total_weight;
    typename RankSpace<D, Scalar>::FlatImage rank;
    SlabRef rank_points;  // Point<D, int64_t>
    SlabRef nodes;        // FlatNodeRec<RankBox>
    FlatDirPools dir_pools;
  };

  /// Writes the container this index holds under `family_tag`.
  void SaveFlat(std::ostream* out, uint32_t family_tag = kFlatFamilyTag) const {
    WriteFlatContainer(container_, family_tag, out);
  }

  /// The held container's bytes: SaveFlat's output under the tag the
  /// index was built or loaded with.
  std::span<const std::byte> flat_container() const { return container_; }

 private:
  // A tree under construction: node records in DFS preorder and the
  // directory pools they index, as the container stores them.
  struct BuildArena {
    std::vector<FlatNodeRec<RankBox>> recs;
    FlatDirPoolWriter pools;
  };

  // Writes a fresh build's container: the rank tables and rank points this
  // index holds, then the arena's records and pools.
  std::shared_ptr<const MmapFile> SaveFlat(const BuildArena& arena,
                                           uint32_t family_tag) const {
    FlatArenaWriter writer(family_tag);
    FlatRoot root;
    std::memset(static_cast<void*>(&root), 0, sizeof(root));  // padding must be deterministic
    root.dim = static_cast<uint32_t>(D);
    PersistFrameworkOptions(options_, &root.options);
    root.num_objects = corpus_->num_objects();
    root.total_weight = corpus_->total_weight();
    root.rank = rank_.SaveFlatSlabs(&writer);
    root.rank_points = writer.Slab(rank_points_.view());
    const std::span<const FlatNodeRec<RankBox>> recs = arena.recs;
    root.nodes = writer.Slab<FlatNodeRec<RankBox>>(recs);
    root.dir_pools = arena.pools.WriteSlabs(&writer);
    writer.Root(root);
    return writer.ToFile();
  }

 public:
  /// Opens a flat container over mapped bytes. The returned index keeps
  /// `file` alive; `offset` addresses nested containers inside wrapper
  /// formats. Any structural problem aborts.
  static OrpKwIndex LoadFlat(std::shared_ptr<const MmapFile> file,
                             const Corpus* corpus, uint64_t offset = 0,
                             uint32_t expected_tag = kFlatFamilyTag) {
    KWSC_CHECK(corpus != nullptr);
    KWSC_CHECK(file != nullptr);
    const FlatErrorSink sink = AbortingFlatErrorSink();
    const FlatArenaReader reader(*file, offset, expected_tag);
    const FlatRoot& root = reader.template Root<FlatRoot>();
    OrpKwIndex index(corpus);
    KWSC_CHECK(CheckRoot(reader, root, sink, &index.rank_, &index.pools_));
    KWSC_CHECK_MSG(root.num_objects == corpus->num_objects(),
                   "corpus object count mismatch");
    KWSC_CHECK_MSG(root.total_weight == corpus->total_weight(),
                   "corpus weight mismatch");
    index.options_ = RestoreFrameworkOptions(root.options);
    index.rank_points_.Attach(reader.Slab<Point<D, int64_t>>(root.rank_points));

    const auto recs = reader.Slab<FlatNodeRec<RankBox>>(root.nodes);
    KWSC_CHECK(CheckFlatNodes(recs, index.pools_, sink));
    index.nodes_ = recs;
    index.container_ = {file->data() + offset, reader.total_bytes()};
    index.mmap_ = std::move(file);
    return index;
  }

  /// Layout-level verification of a flat container: LoadFlat's checks —
  /// header, slab bounds and alignment, tree structure, object-id ranges —
  /// plus canonical sort orders. Never aborts; every problem goes through
  /// `sink`. The audit subsystem wraps this into AuditCheck::kFlatLayout
  /// (audit/index_auditor.h).
  static bool ValidateFlat(const MmapFile& file, uint64_t offset,
                           uint32_t expected_tag, const FlatErrorSink& sink) {
    if (!FlatArenaReader::Validate(file, offset, expected_tag, sink)) {
      return false;
    }
    const FlatArenaReader reader(file, offset, expected_tag);
    if (!reader.RootOk<FlatRoot>()) {
      sink("flat root size mismatch for family");
      return false;
    }
    const FlatRoot& root = reader.template Root<FlatRoot>();
    RankSpace<D, Scalar> rank;
    FlatDirPoolReader pools;
    if (!CheckRoot(reader, root, sink, &rank, &pools)) return false;
    const auto recs = reader.Slab<FlatNodeRec<RankBox>>(root.nodes);
    const bool shallow = CheckFlatNodes(recs, pools, sink);
    return ValidateFlatTreeDeep(recs, pools, sink) && shallow;
  }

 private:
  // The invariant auditor reads the node records and directories (and its
  // tests corrupt them) directly; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  // Shell constructor used by LoadFlat.
  explicit OrpKwIndex(const Corpus* corpus) : corpus_(corpus) {}

  // The checks of every attach, LoadFlat's and ValidateFlat's alike: the
  // shared tree-root checks, then the rank tables (attached to `rank`), the
  // rank-point slab and the node slab.
  static bool CheckRoot(const FlatArenaReader& reader, const FlatRoot& root,
                        const FlatErrorSink& sink, RankSpace<D, Scalar>* rank,
                        FlatDirPoolReader* pools) {
    if (!CheckFlatTreeRoot(reader, root, D, sink, pools) ||
        !rank->AttachFlat(reader, root.rank, root.num_objects, sink)) {
      return false;
    }
    if (!reader.SlabOk<Point<D, int64_t>>(root.rank_points) ||
        root.rank_points.count != root.num_objects) {
      sink("flat rank-point slab out of bounds or cardinality mismatch");
      return false;
    }
    if (!reader.SlabOk<FlatNodeRec<RankBox>>(root.nodes)) {
      sink("flat node slab out of bounds");
      return false;
    }
    return true;
  }

  // A node's active set viewed once per dimension, each view sorted by that
  // dimension's rank coordinate. Maintaining the D orders across splits
  // (stable partition around the pivot) replaces the per-level re-sort of
  // the seed construction, dropping split cost from O(n log n) to O(D n) —
  // the classic O(N log N) kd-tree build.
  struct ActiveSet {
    std::array<std::vector<ObjectId>, D> by_dim;

    size_t size() const { return by_dim[0].size(); }

    // Frees all views; called once a node has partitioned itself so peak
    // memory stays O(D N) along a root-to-leaf path.
    void Release() {
      for (std::vector<ObjectId>& view : by_dim) {
        view.clear();
        view.shrink_to_fit();
      }
    }
  };

  struct BuildContext {
    ThreadPool* pool = nullptr;
    int fork_levels = 0;
  };

  // Subtrees smaller than this build inline: the task dispatch and arena
  // splice are not worth amortizing over fewer objects.
  static constexpr size_t kMinForkObjects = 512;

  void Build(ThreadPool* pool, BuildArena* arena) {
    const size_t n = rank_points_.size();
    arena->recs.reserve(2 * n / options_.leaf_objects + 2);
    DirectoryBuilder builder(corpus_, options_);
    if (n <= static_cast<size_t>(options_.leaf_objects)) {
      // Root-only tree; the leaf keeps the object-id pivot order the
      // recursive construction would have received.
      std::vector<ObjectId> active(n);
      std::iota(active.begin(), active.end(), 0);
      arena->pools.Append(
          builder.BuildLeaf(active),
          &AppendFlatNodeRec(RankBox::Everything(), 0, &arena->recs));
      return;
    }
    // Rank coordinates per dimension are a permutation of 0..n-1
    // (geom/rank_space.h sorts by (coordinate, id)), so the initial sorted
    // views come from inverting that permutation — no sort at all.
    ActiveSet root;
    for (int dim = 0; dim < D; ++dim) {
      root.by_dim[dim].resize(n);
      for (uint32_t e = 0; e < n; ++e) {
        root.by_dim[dim][static_cast<size_t>(rank_points_[e][dim])] = e;
      }
    }
    BuildContext ctx;
    ctx.pool = pool;
    ctx.fork_levels = ForkLevels(pool);
    BuildNode(&root, RankBox::Everything(), /*level=*/0,
              /*inherited=*/nullptr, &builder, arena, &ctx);
  }

  // Forking the top `fork_levels` levels yields up to 2^fork_levels subtree
  // tasks; aim for ~4 per thread so the weight-balanced (but not perfectly
  // even) tasks still load-balance, without paying splice traffic deeper.
  static int ForkLevels(const ThreadPool* pool) {
    if (pool == nullptr) return 0;
    int levels = 0;
    for (int capacity = 1; capacity < 4 * pool->parallelism(); capacity *= 2) {
      ++levels;
    }
    return levels;
  }

  // Appends `sub` — a subtree arena in DFS preorder with arena-local child
  // indices and pool offsets — onto `arena`, rebasing both. Returns the
  // subtree root's index in `arena`, or -1 for an empty subtree. Splicing
  // left then right after a forked build reproduces the sequential arena
  // exactly, which is what makes parallel builds byte-identical.
  static int32_t SpliceArena(BuildArena* arena, BuildArena* sub) {
    if (sub->recs.empty()) return -1;
    const int32_t base = static_cast<int32_t>(arena->recs.size());
    for (FlatNodeRec<RankBox>& rec : sub->recs) {
      for (int32_t& child : rec.child) {
        if (child >= 0) child += base;
      }
    }
    arena->pools.Splice(sub->pools, std::span(sub->recs));
    arena->recs.insert(arena->recs.end(), sub->recs.begin(), sub->recs.end());
    return base;
  }

  uint32_t BuildNode(ActiveSet* active, const RankBox& cell, int level,
                     const std::vector<KeywordId>* inherited,
                     DirectoryBuilder* builder, BuildArena* arena,
                     const BuildContext* ctx) {
    const uint32_t index = static_cast<uint32_t>(arena->recs.size());
    AppendFlatNodeRec(cell, level, &arena->recs);

    const size_t n = active->size();
    if (n <= static_cast<size_t>(options_.leaf_objects)) {
      // Leaf pivots keep the order the recursive caller partitioned them in:
      // the parent's split-dimension view. (level >= 1 here — a root-sized
      // leaf is handled in Build; the + D keeps the modulus in range even on
      // that unreachable path, which GCC's array-bounds analysis otherwise
      // flags when this call is inlined into Build with level = 0.)
      arena->pools.Append(
          builder->BuildLeaf(active->by_dim[((level - 1) % D + D) % D]),
          &arena->recs[index]);
      return index;
    }

    // Weight-balanced split on the level's dimension: cut the (pre-sorted)
    // view at the object where the prefix weight reaches half. That object
    // is the pivot — it sits on the split line, i.e. the boundary of both
    // child cells (Section 3.2's push-down rule).
    const int dim = level % D;
    const std::vector<ObjectId>& sorted = active->by_dim[dim];
    const size_t median = WeightedMedianIndex(n, [&](size_t i) {
      return static_cast<uint64_t>(corpus_->doc(sorted[i]).size());
    });
    const ObjectId pivot = sorted[median];
    const int64_t split = rank_points_[pivot][dim];

    std::vector<std::vector<ObjectId>> child_split(2);
    child_split[0].assign(sorted.begin(), sorted.begin() + median);
    child_split[1].assign(sorted.begin() + median + 1, sorted.end());

    std::vector<KeywordId> next_inherited;
    arena->pools.Append(
        builder->Build(sorted, child_split, inherited,
                       std::span<const ObjectId>(&pivot, 1), &next_inherited),
        &arena->recs[index]);

    // Partition every other dimension's view around the pivot. Rank
    // coordinates are distinct, so side membership is a single comparison
    // against the split coordinate; order within each side is preserved —
    // the children arrive pre-sorted in all D dimensions.
    ActiveSet left;
    ActiveSet right;
    left.by_dim[dim] = std::move(child_split[0]);
    right.by_dim[dim] = std::move(child_split[1]);
    for (int d = 0; d < D; ++d) {
      if (d == dim) continue;
      left.by_dim[d].reserve(median);
      right.by_dim[d].reserve(n - median - 1);
      for (ObjectId e : active->by_dim[d]) {
        if (e == pivot) continue;
        (rank_points_[e][dim] < split ? left : right).by_dim[d].push_back(e);
      }
    }
    active->Release();

    RankBox left_cell = cell;
    left_cell.hi[dim] = split - 1;
    RankBox right_cell = cell;
    right_cell.lo[dim] = split + 1;

    int32_t left_child = -1;
    int32_t right_child = -1;
    if (ctx->pool != nullptr && level < ctx->fork_levels &&
        left.size() >= kMinForkObjects && right.size() >= kMinForkObjects) {
      // Fork: the left subtree builds on the pool while this thread builds
      // the right one, each into a private arena. The forked task gets its
      // own DirectoryBuilder (its scratch state is per-instance) and a copy
      // of the inherited-keyword list.
      BuildArena left_arena;
      BuildArena right_arena;
      {
        TaskGroup group(ctx->pool);
        group.Run([this, &left, left_cell, level, next_inherited, &left_arena,
                   ctx] {
          DirectoryBuilder task_builder(corpus_, options_);
          BuildNode(&left, left_cell, level + 1, &next_inherited,
                    &task_builder, &left_arena, ctx);
        });
        BuildNode(&right, right_cell, level + 1, &next_inherited, builder,
                  &right_arena, ctx);
        group.Wait();
      }
      left_child = SpliceArena(arena, &left_arena);
      right_child = SpliceArena(arena, &right_arena);
    } else {
      if (left.size() > 0) {
        left_child = static_cast<int32_t>(BuildNode(
            &left, left_cell, level + 1, &next_inherited, builder, arena,
            ctx));
      }
      if (right.size() > 0) {
        right_child = static_cast<int32_t>(BuildNode(
            &right, right_cell, level + 1, &next_inherited, builder, arena,
            ctx));
      }
    }
    arena->recs[index].child[0] = left_child;
    arena->recs[index].child[1] = right_child;
    return index;
  }

  const Corpus* corpus_;
  FrameworkOptions options_;
  RankSpace<D, Scalar> rank_;
  SlabSpan<Point<D, int64_t>> rank_points_;
  // The node records in DFS preorder and the directory pools they index,
  // both read in place.
  std::span<const FlatNodeRec<RankBox>> nodes_;
  FlatDirPoolReader pools_;
  // The container every span points into: heap bytes the build wrote, or
  // the bytes LoadFlat was given (mapped or read). mmap_ keeps them alive.
  std::shared_ptr<const MmapFile> mmap_;
  std::span<const std::byte> container_;
};

// The persisted d=2 instantiations: the KWO2 flat root and its rank-cell
// node record (FORMATS.lock locks their layouts under format orp-kw).
KWSC_ABI_STRUCT_AS(OrpKwFlatRoot2, OrpKwIndex<2>::FlatRoot);
KWSC_ABI_STRUCT_AS(OrpKwFlatNodeRec2, FlatNodeRec<Box<2, int64_t>>);

}  // namespace kwsc

#endif  // KWSC_CORE_ORP_KW_H_
