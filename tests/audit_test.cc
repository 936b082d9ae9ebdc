// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the paper-invariant auditor (audit/index_auditor.h).
//
// Two halves:
//   1. clean builds of every index family audit clean, including one build
//      per family at N >= 10^5 (N = total verbose-set weight, the paper's
//      input-size measure);
//   2. corruption injection: each structural invariant is broken in a built
//      index through audit::AuditAccess, and the audit must report *that*
//      violation class — proving every check can actually fire and is
//      attributed correctly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/flat_arena.h"
#include "audit/audit_access.h"
#include "audit/index_auditor.h"
#include "common/random.h"
#include "core/dim_reduction.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "kdtree/interval_tree.h"
#include "kdtree/kd_tree.h"
#include "text/corpus.h"
#include "text/document.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using audit::AuditAccess;
using audit::AuditCheck;
using audit::AuditIndex;
using audit::AuditOptions;
using audit::AuditReport;

// Corrupted indexes cannot go through SaveFlat/LoadFlat (the flat loader
// has its own KWSC_CHECK aborts); the structural walk is what is under test.
AuditOptions NoSerialization() {
  AuditOptions options;
  options.check_serialization = false;
  return options;
}

/// A corpus where every document carries the pair {0, 1} plus one varying
/// keyword: keywords 0 and 1 are large at every node of interest, so tuple
/// registries and materialized lists are all exercised.
Corpus SharedPairCorpus(uint32_t n, uint32_t varying = 13) {
  std::vector<Document> docs;
  docs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    docs.push_back(Document{0, 1, static_cast<KeywordId>(2 + i % varying)});
  }
  return Corpus(docs);
}

std::vector<Point<2>> GridPoints(uint32_t n) {
  std::vector<Point<2>> pts;
  pts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Distinct coordinates in both dimensions, deliberately not axis-sorted
    // the same way.
    pts.push_back({{static_cast<double>(i),
                    static_cast<double>((i * 73) % n)}});
  }
  return pts;
}

OrpKwIndex<2> BuildOrp(const Corpus& corpus,
                       const std::vector<Point<2>>& pts) {
  FrameworkOptions opt;
  opt.k = 2;
  return OrpKwIndex<2>(pts, &corpus, opt);
}

// ---------------------------------------------------------------------------
// Clean builds audit clean.
// ---------------------------------------------------------------------------

TEST(AuditClean, OrpKw) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  const OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const AuditReport report = AuditIndex(index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.nodes_checked, 0u);
  EXPECT_EQ(report.objects_checked, 256u);
}

TEST(AuditClean, DimRed) {
  Rng rng(8101);
  CorpusSpec spec;
  spec.num_objects = 600;
  spec.vocab_size = 50;
  const Corpus corpus = GenerateCorpus(spec, &rng);
  const auto pts = GeneratePoints<3>(600, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  const AuditReport report = AuditIndex(index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, SpKwBox) {
  Rng rng(8102);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 40;
  const Corpus corpus = GenerateCorpus(spec, &rng);
  const auto pts = GeneratePoints<2>(500, PointDistribution::kClustered,
                                     &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const SpKwBoxIndex<2> index(pts, &corpus, opt);
  const AuditReport report = AuditIndex(index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, RrKw) {
  Rng rng(8103);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 40;
  const Corpus corpus = GenerateCorpus(spec, &rng);
  const auto rects =
      GenerateRects<1>(400, PointDistribution::kUniform, 0.05, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const RrKwIndex<1> index(rects, &corpus, opt);
  const AuditReport report = AuditIndex(index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, Substrates) {
  Rng rng(8104);
  const auto pts = GeneratePoints<2>(700, PointDistribution::kUniform, &rng);
  const KdTree<2> tree{std::span<const Point<2>>(pts)};
  const AuditReport kd = audit::AuditKdTree(tree);
  EXPECT_TRUE(kd.ok()) << kd.ToString();

  const auto ivs = GenerateRects<1>(300, PointDistribution::kUniform, 0.05,
                                    &rng);
  const IntervalTree<double> itree{std::span<const Box<1>>(ivs)};
  const AuditReport it = audit::AuditIntervalTree(itree);
  EXPECT_TRUE(it.ok()) << it.ToString();
}

TEST(AuditClean, DisabledFeatureVariantsAuditClean) {
  const Corpus corpus = SharedPairCorpus(200);
  const auto pts = GridPoints(200);
  FrameworkOptions opt;
  opt.k = 2;
  opt.enable_tuple_pruning = false;
  const OrpKwIndex<2> no_tuples(pts, &corpus, opt);
  EXPECT_TRUE(AuditIndex(no_tuples).ok());

  opt.enable_tuple_pruning = true;
  opt.enable_materialized_lists = false;
  const OrpKwIndex<2> no_lists(pts, &corpus, opt);
  EXPECT_TRUE(AuditIndex(no_lists).ok());
}

// ---------------------------------------------------------------------------
// Corruption injection: every violation class must fire, and fire as itself.
// ---------------------------------------------------------------------------

// The ORP-KW cases below patch the built index's own heap container in
// place — its node records or its directory pools — through
// AuditAccess::MutableSlab. A pool cannot grow in place, so a case that
// plants an entry overwrites one.

TEST(AuditCorruption, SwappedChildrenBreakCellDerivationAndPreorder) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto nodes =
      AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index));
  ASSERT_FALSE(IsLeaf(nodes[0]));
  std::swap(nodes[0].child[0], nodes[0].child[1]);

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kCellGeometry)) << report.ToString();
  EXPECT_TRUE(report.Has(AuditCheck::kTreeStructure)) << report.ToString();
}

TEST(AuditCorruption, CorruptedWeightIsCaughtByWeightAccounting) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index))[0].weight += 7;

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kWeightAccounting)) << report.ToString();
}

TEST(AuditCorruption, DuplicatedPivotBreaksDisjointness) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto& nodes = AuditAccess::Nodes(index);
  ASSERT_FALSE(IsLeaf(nodes[0]));
  const ObjectId stolen = AuditAccess::Directory(index, nodes[0]).pivots[0];
  // Plant the root pivot into some leaf as well, over the leaf's first.
  bool planted = false;
  for (const auto& node : nodes) {
    const FlatDirView dir = AuditAccess::Directory(index, node);
    if (IsLeaf(node) && !dir.pivots.empty()) {
      AuditAccess::MutableSlab(&index, dir.pivots)[0] = stolen;
      planted = true;
      break;
    }
  }
  ASSERT_TRUE(planted);
  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kPartitionDisjoint))
      << report.ToString();
}

TEST(AuditCorruption, DroppedPivotBreaksCoverage) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  for (auto& node :
       AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index))) {
    if (IsLeaf(node) && node.pivot_count > 0) {
      --node.pivot_count;
      break;
    }
  }
  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kPartitionCoverage))
      << report.ToString();
}

TEST(AuditCorruption, BogusMaterializedListIsCaught) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto& nodes = AuditAccess::Nodes(index);
  ASSERT_FALSE(IsLeaf(nodes[0]));
  // Keyword 0 occurs in every document, so it is large at the root — a
  // materialized list for it is wrong by construction. Keyword 0 sorts
  // first, so relabeling the root's first list keeps the entries sorted.
  const FlatDirView dir = AuditAccess::Directory(index, nodes[0]);
  ASSERT_FALSE(dir.materialized.empty());
  AuditAccess::MutableSlab(&index, dir.materialized)[0].keyword = 0;

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kDirectoryMaterialized))
      << report.ToString();
}

TEST(AuditCorruption, InsertedPhantomTupleIsCaught) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto& nodes = AuditAccess::Nodes(index);
  ASSERT_FALSE(IsLeaf(nodes[0]));
  const FlatDirView dir = AuditAccess::Directory(index, nodes[0]);
  ASSERT_GT(dir.num_children, 0u);
  ASSERT_FALSE(dir.child_tuples[0].empty());
  // A phantom key over the registry's last one, the pair tuple (keywords 0
  // and 1 are the root's only large ones, so the order holds).
  AuditAccess::MutableSlab(&index, dir.child_tuples[0]).back() =
      0xDEADBEEFull;

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kDirectoryTuples)) << report.ToString();
}

TEST(AuditCorruption, ExtraTupleKeyIsCaughtByTheRegistryCount) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto nodes =
      AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index));
  ASSERT_FALSE(IsLeaf(nodes[0]));
  ASSERT_GT(nodes[0].num_children, 1u);
  // Child 1's registry follows child 0's in the pool, so widening child 0's
  // range by one adds child 1's first key without dropping any: no realized
  // tuple goes missing, and only the recount of the registry's size can see
  // the extra entry.
  ASSERT_EQ(nodes[0].tuple_begin[1],
            nodes[0].tuple_begin[0] + nodes[0].tuple_count[0]);
  ASSERT_GT(nodes[0].tuple_count[1], 0u);
  ++nodes[0].tuple_count[0];

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_EQ(report.CountOf(AuditCheck::kDirectoryTuples), 1u)
      << report.ToString();
  EXPECT_NE(report.ToString().find("registry holds"), std::string::npos)
      << report.ToString();
}

TEST(AuditCorruption, DroppedTupleRegistryIsCaught) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto nodes =
      AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index));
  ASSERT_FALSE(IsLeaf(nodes[0]));
  ASSERT_GT(nodes[0].num_children, 0u);
  // Every document carries {0, 1}, both large at the root, so the pair
  // tuple is realized in every non-empty child: emptying the registry must
  // lose it.
  ASSERT_GT(nodes[0].tuple_count[0], 0u);
  nodes[0].tuple_count[0] = 0;

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kDirectoryTuples)) << report.ToString();
}

TEST(AuditCorruption, WrongLevelIsCaught) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  OrpKwIndex<2> index = BuildOrp(corpus, pts);
  const auto nodes =
      AuditAccess::MutableSlab(&index, AuditAccess::Nodes(index));
  ASSERT_GT(nodes.size(), 1u);
  nodes[1].level = static_cast<int16_t>(nodes[1].level + 1);

  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kTreeStructure)) << report.ToString();
}

TEST(AuditCorruption, DimRedFanoutDriftIsCaught) {
  Rng rng(8105);
  CorpusSpec spec;
  spec.num_objects = 600;
  spec.vocab_size = 50;
  const Corpus corpus = GenerateCorpus(spec, &rng);
  const auto pts = GeneratePoints<3>(600, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  DimRedOrpKwIndex<3> index(pts, &corpus, opt);
  auto& nodes = AuditAccess::MutableNodes(&index);
  bool corrupted = false;
  for (auto& node : nodes) {
    if (!node.children.empty()) {
      node.fanout += 2;  // Off the f_u = 2*2^(k^level) schedule.
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const AuditReport report = AuditIndex(index, NoSerialization());
  EXPECT_TRUE(report.Has(AuditCheck::kFanoutSchedule)) << report.ToString();
}

TEST(AuditCorruption, KdTreeLooseBoundsAreCaught) {
  Rng rng(8106);
  const auto pts = GeneratePoints<2>(300, PointDistribution::kUniform, &rng);
  KdTree<2> tree{std::span<const Point<2>>(pts)};
  auto& nodes = AuditAccess::MutableNodes(&tree);
  nodes[0].bounds.hi[0] += 10.0;  // No longer tight.

  const AuditReport report = audit::AuditKdTree(tree);
  EXPECT_TRUE(report.Has(AuditCheck::kCellGeometry)) << report.ToString();
}

TEST(AuditCorruption, IntervalTreeShiftedCenterIsCaught) {
  Rng rng(8107);
  const auto ivs = GenerateRects<1>(200, PointDistribution::kUniform, 0.05,
                                    &rng);
  IntervalTree<double> tree{std::span<const Box<1>>(ivs)};
  auto& nodes = AuditAccess::MutableNodes(&tree);
  nodes[0].center += 100.0;  // Outside every stored interval.

  const AuditReport report = audit::AuditIntervalTree(tree);
  EXPECT_TRUE(report.Has(AuditCheck::kCellGeometry)) << report.ToString();
}

// ---------------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------------

TEST(AuditReportTest, CapsStoredViolationsButCountsAll) {
  AuditReport report;
  for (int i = 0; i < 200; ++i) {
    report.Add(AuditCheck::kTreeStructure, i, "violation %d", i);
  }
  EXPECT_EQ(report.total_violations(), 200u);
  EXPECT_LE(report.violations().size(), AuditReport::kMaxStored);
  EXPECT_EQ(report.CountOf(AuditCheck::kTreeStructure), 200u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("tree-structure"), std::string::npos);
}

TEST(AuditReportTest, MergePrefixesAndAccumulates) {
  AuditReport inner;
  inner.nodes_checked = 3;
  inner.Add(AuditCheck::kRankSpace, 1, "bad rank");
  AuditReport outer;
  outer.nodes_checked = 2;
  outer.Merge(inner, "secondary: ");
  EXPECT_EQ(outer.nodes_checked, 5u);
  EXPECT_EQ(outer.CountOf(AuditCheck::kRankSpace), 1u);
  ASSERT_EQ(outer.violations().size(), 1u);
  EXPECT_NE(outer.violations()[0].message.find("secondary: bad rank"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// At scale: every family audits clean at N >= 10^5 (N = total verbose-set
// weight), the acceptance bar for the invariant gate.
// ---------------------------------------------------------------------------

TEST(AuditFlat, CleanFlatContainerAuditsClean) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  const OrpKwIndex<2> index = BuildOrp(corpus, pts);
  std::ostringstream out;
  index.SaveFlat(&out);
  const auto file = MmapFile::FromBytes(out.str());
  const AuditReport report = audit::AuditFlatFile<OrpKwIndex<2>>(*file);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditFlat, CorruptedRootOffsetIsCaughtAsFlatLayout) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  const OrpKwIndex<2> index = BuildOrp(corpus, pts);
  std::ostringstream out;
  index.SaveFlat(&out);
  std::string bytes = out.str();
  // Point the header's root_offset past the end of the container: the exact
  // corruption a bit flip or truncated copy would produce. The audit must
  // attribute it to the flat-layout class, not crash or mislabel it.
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.root_offset = header.total_bytes + kFlatAlignment;
  std::memcpy(bytes.data(), &header, sizeof(header));

  const auto file = MmapFile::FromBytes(bytes);
  const AuditReport report = audit::AuditFlatFile<OrpKwIndex<2>>(*file);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kFlatLayout)) << report.ToString();
  EXPECT_EQ(report.total_violations(),
            report.CountOf(AuditCheck::kFlatLayout))
      << "flat corruption must not masquerade as another class: "
      << report.ToString();
}

TEST(AuditFlat, CorruptedSlabCountIsCaughtAsFlatLayout) {
  const Corpus corpus = SharedPairCorpus(256);
  const auto pts = GridPoints(256);
  const OrpKwIndex<2> index = BuildOrp(corpus, pts);
  std::ostringstream out;
  index.SaveFlat(&out);
  std::string bytes = out.str();
  // Blow up a SlabRef count inside the root POD: offsets stay plausible but
  // the slab would run past the container, which bounds checking must catch.
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  using Root = OrpKwIndex<2>::FlatRoot;
  ASSERT_LE(header.root_offset + sizeof(Root), bytes.size());
  Root root;
  std::memcpy(&root, bytes.data() + header.root_offset, sizeof(root));
  root.rank_points.count = header.total_bytes;  // Beyond the file.
  std::memcpy(bytes.data() + header.root_offset, &root, sizeof(root));

  const auto file = MmapFile::FromBytes(bytes);
  const AuditReport report = audit::AuditFlatFile<OrpKwIndex<2>>(*file);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kFlatLayout)) << report.ToString();
}

TEST(AuditAtScale, AllFamiliesCleanAtHundredThousandWeight) {
  Rng rng(8108);
  CorpusSpec spec;
  spec.num_objects = 24000;
  spec.vocab_size = 600;
  const Corpus corpus = GenerateCorpus(spec, &rng);
  ASSERT_GE(corpus.total_weight(), 100000u);

  FrameworkOptions opt;
  opt.k = 2;
  {
    const auto pts =
        GeneratePoints<2>(spec.num_objects, PointDistribution::kUniform,
                          &rng);
    const OrpKwIndex<2> index(pts, &corpus, opt);
    const AuditReport report = AuditIndex(index);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.objects_checked, spec.num_objects);
  }
  {
    const auto pts =
        GeneratePoints<3>(spec.num_objects, PointDistribution::kClustered,
                          &rng);
    const DimRedOrpKwIndex<3> index(pts, &corpus, opt);
    const AuditReport report = AuditIndex(index);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  {
    const auto pts =
        GeneratePoints<2>(spec.num_objects, PointDistribution::kDiagonal,
                          &rng);
    const SpKwBoxIndex<2> index(pts, &corpus, opt);
    const AuditReport report = AuditIndex(index);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  {
    const auto rects = GenerateRects<1>(
        spec.num_objects, PointDistribution::kUniform, 0.02, &rng);
    const RrKwIndex<1> index(rects, &corpus, opt);
    const AuditReport report = AuditIndex(index);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

}  // namespace
}  // namespace kwsc
