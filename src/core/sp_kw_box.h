// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// SP-KW / LC-KW over the box-cell substrate (Appendix D, arbitrary d).
//
// This index applies the transformation framework to a space-partitioning
// tree whose cells are axis boxes in the *original* coordinate space (linear
// constraints do not survive the per-dimension rank reduction of Section
// 3.4, so rank space is unavailable here). Splits are weighted medians under
// the lexicographic (coordinate, id) order — the deterministic stand-in for
// the infinitesimal perturbation of Appendix D.4: the median object becomes
// the node's pivot (it lies on the splitting hyperplane), and ties share the
// boundary plane, so sibling cells may touch on a measure-zero slab.
//
// Queries are conjunctions of halfspaces (a d-simplex is d+1 of them; an
// LC-KW query supplies s of them directly, skipping the paper's
// simplex-decomposition step without changing the answer). They run the
// framework descent (core/tree_descent.h) over the node records; cells are
// pruned by exact corner tests against each halfspace.

#ifndef KWSC_CORE_SP_KW_BOX_H_
#define KWSC_CORE_SP_KW_BOX_H_

#include <algorithm>
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
#include "core/flat_format.h"
#include "core/framework.h"
#include "core/node_directory.h"
#include "core/tree_descent.h"
#include "geom/box.h"
#include "geom/halfspace.h"
#include "geom/lp.h"
#include "geom/point.h"
#include "text/corpus.h"

namespace kwsc {

namespace audit {
struct AuditAccess;
}  // namespace audit

template <int D, typename Scalar = double>
class SpKwBoxIndex {
 public:
  using PointType = Point<D, Scalar>;
  using QueryType = ConvexQuery<D, Scalar>;

  // Batch-dynamic surface (DynamizableFamily, core/contracts.h): built from
  // points, queried with halfspace conjunctions; the dynamization buffer
  // scan runs the same exact halfspace tests the cell pruning uses.
  using DynamicGeomType = PointType;
  using DynamicRegionType = QueryType;
  static bool MatchesRegion(const QueryType& q, const PointType& p) {
    return q.Satisfies(p);
  }

  /// Builds the index over `points` (one per corpus object). The build
  /// writes the flat container once and attaches it through LoadFlat, so a
  /// built index is a loaded one.
  SpKwBoxIndex(std::span<const PointType> points, const Corpus* corpus,
               FrameworkOptions options)
      : corpus_(corpus), options_(options) {
    KWSC_CHECK(corpus != nullptr);
    KWSC_CHECK(points.size() == corpus->num_objects());
    CheckKeywordArity(options_.k);
    points_.Attach(points);
    BuildArena arena;
    if (!points.empty()) {
      std::vector<ObjectId> active(points.size());
      std::iota(active.begin(), active.end(), 0);
      DirectoryBuilder builder(corpus_, options_);
      BuildNode(&active, Box<D, Scalar>::Everything(), 0, nullptr, &builder,
                &arena);
    }
    *this = LoadFlat(SaveFlat(arena), corpus);
    // The container round-trips every persisted field; the execution
    // knobs it does not store stay the caller's.
    options_ = options;
  }

  int k() const { return options_.k; }
  size_t num_nodes() const { return nodes_.size(); }
  uint64_t total_weight() const { return corpus_->total_weight(); }

  std::vector<ObjectId> Query(const QueryType& q,
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
  void QueryEmit(const QueryType& q, std::span<const KeywordId> keywords,
                 Emit&& emit, QueryStats* stats = nullptr,
                 OpsBudget* budget = nullptr) const {
    const SortedKeywords sorted =
        CanonicalizeQueryKeywords(keywords, options_.k);
    DescendTree(
        nodes_, pools_, *corpus_, options_, sorted,
        [&](const Box<D, Scalar>& cell) { return Classify(cell, q) == 2; },
        [&](const Box<D, Scalar>& cell) { return Classify(cell, q) == 0; },
        [&](ObjectId e) { return q.Satisfies(points_[e]); }, emit, stats,
        budget);
  }

  /// Budgeted "at least t results?" detection (used by the L2NN-KW binary
  /// search of Corollary 7). The budget follows the d > k - 1 regime of
  /// Corollary 6: C * (N^{1-1/(d+1)} + N^{1-1/k} t^{1/k}).
  bool ContainsAtLeast(const QueryType& q,
                       std::span<const KeywordId> keywords, uint64_t t,
                       QueryStats* stats = nullptr) const {
    KWSC_CHECK(t >= 1);
    const double n = static_cast<double>(total_weight());
    const double fixed =
        std::pow(n, 1.0 - 1.0 / static_cast<double>(D + 1));
    OpsBudget budget(
        ThresholdQueryBudget(total_weight(), options_.k, t) +
        static_cast<uint64_t>(64.0 * fixed));
    uint64_t found = 0;
    QueryEmit(q, keywords,
              [&found, t](ObjectId) { return ++found < t; }, stats, &budget);
    return found >= t || budget.Exhausted();
  }

  /// The container when it lives on the heap; a mapped one charges nothing.
  size_t MemoryBytes() const {
    const bool heap = mmap_ != nullptr && !mmap_->used_mmap();
    return heap ? container_.size() : 0;
  }

  // ---- Persistence: the v2 flat layout, same scheme as OrpKwIndex (a
  // build attaches the container it writes; SaveFlat writes the held
  // bytes), with original-space points in place of the rank tables
  // (DESIGN.md "On-disk layout v2"). The corpus is saved separately and
  // re-supplied on LoadFlat. Wrapper families (SR-KW, and LC-KW for D >= 2
  // via the alias) reuse the container under their own family tag. ----

  static constexpr uint32_t kFlatFamilyTag = FlatFamilyTag('K', 'W', 'S', '2');

  struct FlatRoot {
    uint32_t dim;
    uint32_t reserved;
    PersistedFrameworkOptions options;
    uint64_t num_objects;
    uint64_t total_weight;
    SlabRef points;  // Point<D, Scalar>
    SlabRef nodes;   // FlatNodeRec<Box<D, Scalar>>
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
    std::vector<FlatNodeRec<Box<D, Scalar>>> recs;
    FlatDirPoolWriter pools;
  };

  // Writes a fresh build's container: the points this index holds, then
  // the arena's records and pools.
  std::shared_ptr<const MmapFile> SaveFlat(const BuildArena& arena) const {
    FlatArenaWriter writer(kFlatFamilyTag);
    FlatRoot root;
    std::memset(static_cast<void*>(&root), 0, sizeof(root));  // padding must be deterministic
    root.dim = static_cast<uint32_t>(D);
    PersistFrameworkOptions(options_, &root.options);
    root.num_objects = corpus_->num_objects();
    root.total_weight = corpus_->total_weight();
    root.points = writer.Slab(points_.view());
    const std::span<const FlatNodeRec<Box<D, Scalar>>> recs = arena.recs;
    root.nodes = writer.Slab<FlatNodeRec<Box<D, Scalar>>>(recs);
    root.dir_pools = arena.pools.WriteSlabs(&writer);
    writer.Root(root);
    return writer.ToFile();
  }

 public:
  static SpKwBoxIndex LoadFlat(std::shared_ptr<const MmapFile> file,
                               const Corpus* corpus, uint64_t offset = 0,
                               uint32_t expected_tag = kFlatFamilyTag) {
    KWSC_CHECK(corpus != nullptr);
    KWSC_CHECK(file != nullptr);
    const FlatErrorSink sink = AbortingFlatErrorSink();
    const FlatArenaReader reader(*file, offset, expected_tag);
    const FlatRoot& root = reader.template Root<FlatRoot>();
    SpKwBoxIndex index(corpus);
    KWSC_CHECK(CheckRoot(reader, root, sink, &index.pools_));
    KWSC_CHECK_MSG(root.num_objects == corpus->num_objects(),
                   "corpus object count mismatch");
    KWSC_CHECK_MSG(root.total_weight == corpus->total_weight(),
                   "corpus weight mismatch");
    index.options_ = RestoreFrameworkOptions(root.options);
    index.points_.Attach(reader.Slab<PointType>(root.points));

    const auto recs = reader.Slab<FlatNodeRec<Box<D, Scalar>>>(root.nodes);
    KWSC_CHECK(CheckFlatNodes(recs, index.pools_, sink));
    index.nodes_ = recs;
    index.container_ = {file->data() + offset, reader.total_bytes()};
    index.mmap_ = std::move(file);
    return index;
  }

  /// LoadFlat's checks plus canonical sort orders, through `sink`; never
  /// aborts (see OrpKwIndex::ValidateFlat).
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
    FlatDirPoolReader pools;
    if (!CheckRoot(reader, root, sink, &pools)) return false;
    const auto recs = reader.Slab<FlatNodeRec<Box<D, Scalar>>>(root.nodes);
    const bool shallow = CheckFlatNodes(recs, pools, sink);
    return ValidateFlatTreeDeep(recs, pools, sink) && shallow;
  }

 private:
  // The invariant auditor reads the node records and directories (and its
  // tests corrupt them) directly; see audit/audit_access.h.
  friend struct audit::AuditAccess;

  // Shell constructor used by LoadFlat.
  explicit SpKwBoxIndex(const Corpus* corpus) : corpus_(corpus) {}

  // The checks of every attach, LoadFlat's and ValidateFlat's alike: the
  // shared tree-root checks, then the point slab and the node slab.
  static bool CheckRoot(const FlatArenaReader& reader, const FlatRoot& root,
                        const FlatErrorSink& sink, FlatDirPoolReader* pools) {
    if (!CheckFlatTreeRoot(reader, root, D, sink, pools)) return false;
    if (!reader.SlabOk<PointType>(root.points) ||
        root.points.count != root.num_objects) {
      sink("flat point slab out of bounds or cardinality mismatch");
      return false;
    }
    if (!reader.SlabOk<FlatNodeRec<Box<D, Scalar>>>(root.nodes)) {
      sink("flat node slab out of bounds");
      return false;
    }
    return true;
  }

  uint32_t BuildNode(std::vector<ObjectId>* active, const Box<D, Scalar>& cell,
                     int level, const std::vector<KeywordId>* inherited,
                     DirectoryBuilder* builder, BuildArena* arena) {
    const uint32_t index = static_cast<uint32_t>(arena->recs.size());
    FlatNodeRec<Box<D, Scalar>>& rec =
        AppendFlatNodeRec(cell, level, &arena->recs);

    if (active->size() <= static_cast<size_t>(options_.leaf_objects)) {
      arena->pools.Append(builder->BuildLeaf(*active), &rec);
      return index;
    }

    const int dim = level % D;
    std::sort(active->begin(), active->end(), [&](ObjectId a, ObjectId b) {
      if (points_[a][dim] != points_[b][dim]) {
        return points_[a][dim] < points_[b][dim];
      }
      return a < b;  // Deterministic perturbation (Appendix D.4).
    });
    const size_t median = WeightedMedianIndex(active->size(), [&](size_t i) {
      return static_cast<uint64_t>(corpus_->doc((*active)[i]).size());
    });
    const ObjectId pivot = (*active)[median];
    const Scalar split = points_[pivot][dim];

    std::vector<std::vector<ObjectId>> child_active(2);
    child_active[0].assign(active->begin(), active->begin() + median);
    child_active[1].assign(active->begin() + median + 1, active->end());

    std::vector<KeywordId> next_inherited;
    arena->pools.Append(
        builder->Build(*active, child_active, inherited,
                       std::span<const ObjectId>(&pivot, 1), &next_inherited),
        &rec);
    active->clear();
    active->shrink_to_fit();

    // Cells touch on the splitting plane: ties share the coordinate, so both
    // children must keep it. Pruning stays exact; only the covered/crossing
    // statistics see the overlap.
    Box<D, Scalar> left_cell = cell;
    left_cell.hi[dim] = split;
    Box<D, Scalar> right_cell = cell;
    right_cell.lo[dim] = split;

    int32_t left = -1;
    int32_t right = -1;
    if (!child_active[0].empty()) {
      left = static_cast<int32_t>(BuildNode(&child_active[0], left_cell,
                                            level + 1, &next_inherited,
                                            builder, arena));
    }
    if (!child_active[1].empty()) {
      right = static_cast<int32_t>(BuildNode(&child_active[1], right_cell,
                                             level + 1, &next_inherited,
                                             builder, arena));
    }
    arena->recs[index].child[0] = left;
    arena->recs[index].child[1] = right;
    return index;
  }

  /// Cell/query relationship: 0 = disjoint, 1 = intersecting (crossing),
  /// 2 = cell fully inside the query region. With exact_cell_tests, the
  /// "crossing" verdict is confirmed by an LP feasibility check so that
  /// cells meeting every constraint individually but not their conjunction
  /// are pruned too.
  int Classify(const Box<D, Scalar>& cell, const QueryType& q) const {
    bool inside = true;
    for (const auto& h : q.constraints) {
      if (!cell.IntersectsHalfspace(h)) return 0;
      if (!cell.InsideHalfspace(h)) inside = false;
    }
    if (inside) return 2;
    if (options_.exact_cell_tests && q.constraints.size() > 1 &&
        !PolytopeIntersectsBox(q, cell)) {
      return 0;
    }
    return 1;
  }

  const Corpus* corpus_;
  FrameworkOptions options_;
  SlabSpan<PointType> points_;
  // The node records in DFS preorder and the directory pools they index,
  // both read in place.
  std::span<const FlatNodeRec<Box<D, Scalar>>> nodes_;
  FlatDirPoolReader pools_;
  // The container every span points into: heap bytes the build wrote, or
  // the bytes LoadFlat was given (mapped or read). mmap_ keeps them alive.
  std::shared_ptr<const MmapFile> mmap_;
  std::span<const std::byte> container_;
};

// The persisted d=2 instantiations: the KWS2 flat root and its box-cell
// node record (FORMATS.lock locks their layouts under format sp-kw-box).
KWSC_ABI_STRUCT_AS(SpKwBoxFlatRoot2, SpKwBoxIndex<2>::FlatRoot);
KWSC_ABI_STRUCT_AS(SpKwBoxFlatNodeRec2, FlatNodeRec<Box<2>>);

}  // namespace kwsc

#endif  // KWSC_CORE_SP_KW_BOX_H_
