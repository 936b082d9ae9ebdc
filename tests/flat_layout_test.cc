// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the v2 mmap-native flat layout (DESIGN.md, "On-disk layout v2"):
// every persistable family round-trips through SaveFlat -> LoadFlat ->
// SaveFlat to the same bytes, with query equivalence and an audit-clean
// loaded index, every slab lands 64-byte aligned, and malformed containers
// (truncated, misaligned, wrong family, wrong dimensionality, wrong corpus)
// die with the specific abort the loader documents. The intersection kernels (scalar
// galloping vs AVX2 blocked) are cross-checked here too, since the flat
// query path runs whichever one kAuto resolves to.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit_access.h"
#include "audit/index_auditor.h"
#include "common/flat_arena.h"
#include "common/random.h"
#include "common/simd_intersect.h"
#include "core/nn_l2.h"
#include "core/nn_linf.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "core/srp_kw.h"
#include "ksi/framework_ksi.h"
#include "test_util.h"
#include "text/inverted_index.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::ExpectAuditClean;
using testing::SaveFlatToBytes;

template <typename Index>
std::shared_ptr<const MmapFile> SaveFlatToFile(const Index& index) {
  return MmapFile::FromBytes(SaveFlatToBytes(index));
}

struct Workload {
  Corpus corpus;
  std::vector<Point<2>> pts;
  FrameworkOptions opt;
  Rng rng{42};
};

Workload MakeWorkload(uint32_t n = 600, uint32_t seed = 42) {
  Workload w;
  w.rng = Rng(seed);
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 48;
  w.corpus = GenerateCorpus(spec, &w.rng);
  w.pts = GeneratePoints<2>(n, PointDistribution::kClustered, &w.rng);
  w.opt.k = 2;
  return w;
}

// ---- Arena-level invariants ----

TEST(FlatArena, EverySlabIs64ByteAligned) {
  FlatArenaWriter writer(FlatFamilyTag('T', 'E', 'S', 'T'));
  // Odd sizes on purpose: the padding rule, not luck, must align them.
  const std::vector<uint8_t> tiny(3, 7);
  const std::vector<uint64_t> mid(17, 99);
  const std::vector<uint8_t> one(1, 1);
  const SlabRef a = writer.Slab(std::span<const uint8_t>(tiny));
  const SlabRef b = writer.Slab(std::span<const uint64_t>(mid));
  const SlabRef c = writer.Slab(std::span<const uint8_t>(one));
  struct Root {
    SlabRef a, b, c;
  };
  writer.Root(Root{a, b, c});
  std::ostringstream out;
  writer.WriteTo(&out);
  const std::string bytes = out.str();

  EXPECT_EQ(bytes.size() % kFlatAlignment, 0u);
  for (const SlabRef& ref : {a, b, c}) {
    EXPECT_EQ(ref.offset % kFlatAlignment, 0u);
  }
  const auto file = MmapFile::FromBytes(bytes);
  const FlatArenaReader reader(*file, 0, FlatFamilyTag('T', 'E', 'S', 'T'));
  EXPECT_EQ(reader.total_bytes(), bytes.size());
  const auto mid_back = reader.Slab<uint64_t>(b);
  ASSERT_EQ(mid_back.size(), mid.size());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mid_back.data()) % kFlatAlignment,
            0u);
  EXPECT_EQ(std::vector<uint64_t>(mid_back.begin(), mid_back.end()), mid);
}

TEST(FlatArena, ContainersConcatenate) {
  // Two containers back to back, the wrapper-over-engine file shape.
  std::ostringstream out;
  {
    FlatArenaWriter writer(FlatFamilyTag('O', 'N', 'E', '1'));
    const std::vector<uint32_t> payload(5, 11);
    struct Root {
      SlabRef payload;
    };
    writer.Root(Root{writer.Slab(std::span<const uint32_t>(payload))});
    writer.WriteTo(&out);
  }
  const uint64_t first_total = out.str().size();
  {
    FlatArenaWriter writer(FlatFamilyTag('T', 'W', 'O', '2'));
    const std::vector<uint32_t> payload(9, 22);
    struct Root {
      SlabRef payload;
    };
    writer.Root(Root{writer.Slab(std::span<const uint32_t>(payload))});
    writer.WriteTo(&out);
  }
  const auto file = MmapFile::FromBytes(out.str());
  const FlatArenaReader first(*file, 0, FlatFamilyTag('O', 'N', 'E', '1'));
  EXPECT_EQ(first.total_bytes(), first_total);
  const FlatArenaReader second(*file, first.total_bytes(),
                               FlatFamilyTag('T', 'W', 'O', '2'));
  EXPECT_EQ(first.total_bytes() + second.total_bytes(), out.str().size());
}

// ---- Per-family round trips: same answers, audit-clean, aligned ----

TEST(FlatLayout, OrpKwRoundTrip) {
  Workload w = MakeWorkload();
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  EXPECT_EQ(bytes.size() % kFlatAlignment, 0u);
  const auto loaded =
      OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(bytes), &w.corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), bytes);
  const audit::AuditReport report = audit::AuditIndex(loaded);
  EXPECT_TRUE(report.ok()) << report.ToString();
  for (int trial = 0; trial < 20; ++trial) {
    const auto q = GenerateBoxQuery(std::span<const Point<2>>(w.pts),
                                    trial % 2 == 0 ? 0.02 : 0.3, &w.rng);
    const auto kws =
        PickQueryKeywords(w.corpus, 2, KeywordPick::kCooccurring, &w.rng);
    EXPECT_EQ(loaded.Query(q, kws), built.Query(q, kws));
  }
}

TEST(FlatLayout, SpKwBoxRoundTrip) {
  Workload w = MakeWorkload(500, 11);
  const SpKwBoxIndex<2> built(w.pts, &w.corpus, w.opt);
  const auto loaded =
      SpKwBoxIndex<2>::LoadFlat(SaveFlatToFile(built), &w.corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  const audit::AuditReport report = audit::AuditIndex(loaded);
  EXPECT_TRUE(report.ok()) << report.ToString();
  for (int trial = 0; trial < 15; ++trial) {
    ConvexQuery<2> q;
    q.constraints.push_back(GenerateHalfspaceQuery(
        std::span<const Point<2>>(w.pts), w.rng.UniformDouble(0.2, 0.8),
        &w.rng));
    const auto kws =
        PickQueryKeywords(w.corpus, 2, KeywordPick::kFrequent, &w.rng);
    EXPECT_EQ(loaded.Query(q, kws), built.Query(q, kws));
  }
}

TEST(FlatLayout, SrpKwRoundTrip) {
  Workload w = MakeWorkload(400, 13);
  const SrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const auto loaded = SrpKwIndex<2>::LoadFlat(SaveFlatToFile(built), &w.corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  for (int trial = 0; trial < 15; ++trial) {
    const Point<2> c{{w.rng.NextDouble(), w.rng.NextDouble()}};
    const double r_sq = w.rng.UniformDouble(0.01, 0.2);
    const auto kws =
        PickQueryKeywords(w.corpus, 2, KeywordPick::kCooccurring, &w.rng);
    EXPECT_EQ(loaded.Query(c, r_sq, kws), built.Query(c, r_sq, kws));
  }
}

TEST(FlatLayout, RrKwRoundTrip) {
  Rng rng(17);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto rects = GenerateRects<1>(400, PointDistribution::kUniform, 0.05, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const RrKwIndex<1> built(rects, &corpus, opt);
  const auto loaded = RrKwIndex<1>::LoadFlat(SaveFlatToFile(built), &corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  const audit::AuditReport report = audit::AuditIndex(loaded);
  EXPECT_TRUE(report.ok()) << report.ToString();
  auto queries = GenerateRects<1>(15, PointDistribution::kUniform, 0.2, &rng);
  for (const Box<1>& q : queries) {
    const auto kws =
        PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    EXPECT_EQ(loaded.Query(q, kws), built.Query(q, kws));
  }
}

TEST(FlatLayout, LinfNnRoundTrip) {
  Workload w = MakeWorkload(400, 19);
  const LinfNnIndex<2> built(w.pts, &w.corpus, w.opt);
  const auto loaded =
      LinfNnIndex<2>::LoadFlat(SaveFlatToFile(built), &w.corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  for (int trial = 0; trial < 10; ++trial) {
    const Point<2> q{{w.rng.NextDouble(), w.rng.NextDouble()}};
    const auto kws =
        PickQueryKeywords(w.corpus, 2, KeywordPick::kFrequent, &w.rng);
    const uint64_t t = 1 + w.rng.NextBounded(6);
    EXPECT_EQ(loaded.Query(q, t, kws), built.Query(q, t, kws));
  }
}

TEST(FlatLayout, L2NnRoundTrip) {
  Rng rng(23);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 32;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GenerateIntPoints<2>(300, PointDistribution::kUniform, &rng,
                                  /*max_coord=*/10000);
  FrameworkOptions opt;
  opt.k = 2;
  const L2NnIndex<2> built(pts, &corpus, opt);
  const auto loaded = L2NnIndex<2>::LoadFlat(SaveFlatToFile(built), &corpus);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  for (int trial = 0; trial < 10; ++trial) {
    const IntPoint<2> q{{rng.UniformInt(0, 10000), rng.UniformInt(0, 10000)}};
    const auto kws =
        PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    const uint64_t t = 1 + rng.NextBounded(5);
    EXPECT_EQ(loaded.Query(q, t, kws), built.Query(q, t, kws));
  }
}

TEST(FlatLayout, FrameworkKsiRoundTrip) {
  std::vector<std::vector<int64_t>> sets = {
      {1, 2, 3, 5, 8, 13}, {2, 3, 5, 7, 11}, {3, 5, 9, 13}};
  auto instance = KsiInstance::FromSets(sets);
  FrameworkOptions opt;
  opt.k = 2;
  const FrameworkKsi built(&instance, opt);
  const auto loaded =
      FrameworkKsi::LoadFlat(SaveFlatToFile(built), &instance);
  EXPECT_EQ(SaveFlatToBytes(loaded), SaveFlatToBytes(built));
  for (KeywordId a = 0; a < 3; ++a) {
    for (KeywordId b = 0; b < 3; ++b) {
      if (a == b) continue;  // Query keywords must be distinct.
      const std::vector<KeywordId> q = {a, b};
      auto lhs = loaded.Report(q);
      auto rhs = built.Report(q);
      std::sort(lhs.begin(), lhs.end());
      std::sort(rhs.begin(), rhs.end());
      EXPECT_EQ(lhs, rhs);
      EXPECT_EQ(loaded.Empty(q), built.Empty(q));
    }
  }
}

TEST(FlatLayout, EmptyCorpusRoundTrips) {
  Corpus corpus;  // Zero objects: the flat tree slab is legitimately empty.
  std::vector<Point<2>> pts;
  FrameworkOptions opt;
  opt.k = 2;
  const OrpKwIndex<2> built(pts, &corpus, opt);
  const auto loaded =
      OrpKwIndex<2>::LoadFlat(SaveFlatToFile(built), &corpus);
  const std::vector<KeywordId> kws = {0, 1};
  EXPECT_TRUE(loaded.Query(Box<2>::Everything(), kws).empty());
}

// ---- A built index is its container ----

// A build writes its container and attaches it the way LoadFlat does, so
// the built index and its SaveFlat bytes loaded from the heap are the same
// object: equal memory charge, equal bytes, and equal answers — checked
// against brute force — on one batch.
template <typename Index, typename Region>
void ExpectBuiltIsLoaded(const Index& built, const Corpus& corpus,
                         std::span<const Region> regions,
                         const std::function<bool(const Region&, ObjectId)>&
                             matches) {
  const std::string bytes = SaveFlatToBytes(built);
  const Index loaded = Index::LoadFlat(MmapFile::FromBytes(bytes), &corpus);
  EXPECT_EQ(built.MemoryBytes(), loaded.MemoryBytes());
  EXPECT_GE(built.MemoryBytes(), bytes.size());
  EXPECT_EQ(SaveFlatToBytes(loaded), bytes);
  Rng rng(7);
  for (const Region& region : regions) {
    const auto kws =
        PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    std::vector<ObjectId> want;
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      if (matches(region, e) && corpus.ContainsAll(e, kws)) want.push_back(e);
    }
    std::vector<ObjectId> got = built.Query(region, kws);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(loaded.Query(region, kws), built.Query(region, kws));
  }
}

TEST(FlatLayout, BuiltOrpKwIsItsLoadedContainer) {
  Workload w = MakeWorkload(700, 71);
  std::vector<Box<2>> boxes;
  for (int i = 0; i < 24; ++i) {
    boxes.push_back(GenerateBoxQuery(std::span<const Point<2>>(w.pts),
                                     i % 2 == 0 ? 0.05 : 0.4, &w.rng));
  }
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  ExpectBuiltIsLoaded<OrpKwIndex<2>, Box<2>>(
      built, w.corpus, boxes,
      [&](const Box<2>& q, ObjectId e) { return q.Contains(w.pts[e]); });

  const auto pts1 =
      GeneratePoints<1>(w.pts.size(), PointDistribution::kUniform, &w.rng);
  std::vector<Box<1>> ranges;
  for (int i = 0; i < 24; ++i) {
    ranges.push_back(GenerateBoxQuery(std::span<const Point<1>>(pts1),
                                      i % 2 == 0 ? 0.05 : 0.4, &w.rng));
  }
  const OrpKwIndex<1> built1(pts1, &w.corpus, w.opt);
  ExpectBuiltIsLoaded<OrpKwIndex<1>, Box<1>>(
      built1, w.corpus, ranges,
      [&](const Box<1>& q, ObjectId e) { return q.Contains(pts1[e]); });
}

TEST(FlatLayout, BuiltSpKwBoxIsItsLoadedContainer) {
  Workload w = MakeWorkload(600, 73);
  std::vector<ConvexQuery<2>> queries(24);
  for (ConvexQuery<2>& q : queries) {
    q.constraints.push_back(GenerateHalfspaceQuery(
        std::span<const Point<2>>(w.pts), w.rng.UniformDouble(0.2, 0.8),
        &w.rng));
  }
  const SpKwBoxIndex<2> built(w.pts, &w.corpus, w.opt);
  ExpectBuiltIsLoaded<SpKwBoxIndex<2>, ConvexQuery<2>>(
      built, w.corpus, queries, [&](const ConvexQuery<2>& q, ObjectId e) {
        return q.Satisfies(w.pts[e]);
      });
}

// The query reads node records in place, so a built index charges its heap
// container (plus ORP-KW's rank-table bucket index) and nothing per node.
TEST(FlatLayout, BuiltIndexChargesNoNodeArena) {
  Workload w = MakeWorkload(600, 83);
  const OrpKwIndex<2> orp(w.pts, &w.corpus, w.opt);
  ASSERT_GT(orp.num_nodes(), 1u);
  EXPECT_EQ(orp.MemoryBytes(),
            orp.flat_container().size() +
                audit::AuditAccess::RankSpaceOf(orp).MemoryBytes());
  const SpKwBoxIndex<2> box(w.pts, &w.corpus, w.opt);
  ASSERT_GT(box.num_nodes(), 1u);
  EXPECT_EQ(box.MemoryBytes(), box.flat_container().size());
}

TEST(FlatLayout, BuiltSrpKwIsItsLoadedContainer) {
  Workload w = MakeWorkload(500, 79);
  const SrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  const auto loaded = SrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(bytes),
                                              &w.corpus);
  EXPECT_EQ(built.MemoryBytes(), loaded.MemoryBytes());
  EXPECT_GE(built.MemoryBytes(), bytes.size());
  EXPECT_EQ(SaveFlatToBytes(loaded), bytes);
  for (int trial = 0; trial < 24; ++trial) {
    const Point<2> c{{w.rng.NextDouble(), w.rng.NextDouble()}};
    const double r_sq = w.rng.UniformDouble(0.01, 0.2);
    const auto kws =
        PickQueryKeywords(w.corpus, 2, KeywordPick::kCooccurring, &w.rng);
    std::vector<ObjectId> want;
    for (ObjectId e = 0; e < w.corpus.num_objects(); ++e) {
      const double dx = w.pts[e][0] - c[0];
      const double dy = w.pts[e][1] - c[1];
      if (dx * dx + dy * dy <= r_sq && w.corpus.ContainsAll(e, kws)) {
        want.push_back(e);
      }
    }
    std::vector<ObjectId> got = built.Query(c, r_sq, kws);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(loaded.Query(c, r_sq, kws), built.Query(c, r_sq, kws));
  }
}

// ---- ValidateFlat as a non-aborting checker ----

TEST(FlatLayout, ValidateFlatAcceptsCleanContainer) {
  Workload w = MakeWorkload(200, 31);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const auto file = SaveFlatToFile(built);
  std::vector<std::string> messages;
  const bool ok = OrpKwIndex<2>::ValidateFlat(
      *file, 0, OrpKwIndex<2>::kFlatFamilyTag,
      [&messages](const std::string& m) { messages.push_back(m); });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(messages.empty());
}

TEST(FlatLayout, ValidateFlatRejectsWrongTagWithoutAborting) {
  Workload w = MakeWorkload(200, 37);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const auto file = SaveFlatToFile(built);
  std::vector<std::string> messages;
  const bool ok = OrpKwIndex<2>::ValidateFlat(
      *file, 0, SrpKwIndex<2>::kFlatFamilyTag,
      [&messages](const std::string& m) { messages.push_back(m); });
  EXPECT_FALSE(ok);
  ASSERT_FALSE(messages.empty());
  EXPECT_NE(messages.front().find("family tag mismatch"), std::string::npos);
}

// ---- Malformed containers must die with the documented abort ----

using FlatLayoutDeathTest = ::testing::Test;

TEST(FlatLayoutDeathTest, TruncatedFileAborts) {
  Workload w = MakeWorkload(200, 41);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_DEATH(
      {
        auto loaded = OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(truncated),
                                              &w.corpus);
      },
      "flat|bounds|implausible");
}

TEST(FlatLayoutDeathTest, HeaderOnlyPrefixAborts) {
  EXPECT_DEATH(
      {
        Corpus corpus;
        auto loaded = OrpKwIndex<2>::LoadFlat(
            MmapFile::FromBytes(std::string(16, '\0')), &corpus);
      },
      "too small");
}

TEST(FlatLayoutDeathTest, MisalignedOffsetAborts) {
  Workload w = MakeWorkload(200, 43);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  // A container whose start is not on the alignment quantum is refused
  // before any slab is touched.
  const std::string shifted = std::string(8, '\0') + bytes;
  EXPECT_DEATH(
      {
        auto loaded = OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(shifted),
                                              &w.corpus, /*offset=*/8);
      },
      "aligned");
}

TEST(FlatLayoutDeathTest, WrongFamilyTagAborts) {
  Workload w = MakeWorkload(200, 47);
  const SpKwBoxIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  EXPECT_DEATH(
      {
        auto loaded = OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(bytes),
                                              &w.corpus);
      },
      "family tag mismatch");
}

TEST(FlatLayoutDeathTest, WrongDimensionalityAborts) {
  Rng rng(53);
  CorpusSpec spec;
  spec.num_objects = 150;
  spec.vocab_size = 24;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<1>(150, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const OrpKwIndex<1> built(pts, &corpus, opt);
  const std::string bytes = SaveFlatToBytes(built);
  EXPECT_DEATH(
      {
        auto loaded =
            OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(bytes), &corpus);
      },
      // The root POD embeds per-dimension slab refs, so a dimension
      // mismatch surfaces as a root-size mismatch before the dim field is
      // ever read; either abort is the documented refusal.
      "root size mismatch|dimensionality mismatch");
}

TEST(FlatLayoutDeathTest, WrongCorpusAborts) {
  Workload w = MakeWorkload(200, 59);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  const std::string bytes = SaveFlatToBytes(built);
  Rng other_rng(60);
  CorpusSpec other_spec;
  other_spec.num_objects = 100;
  other_spec.vocab_size = 24;
  Corpus other = GenerateCorpus(other_spec, &other_rng);
  EXPECT_DEATH(
      {
        auto loaded =
            OrpKwIndex<2>::LoadFlat(MmapFile::FromBytes(bytes), &other);
      },
      "corpus");
}

// An ORP-KW container whose first id in the chosen object-id pool is
// patched to the object count: one past the last valid id.
std::string WithOutOfRangePoolId(SlabRef FlatDirPools::*pool) {
  Workload w = MakeWorkload(600, 61);
  const OrpKwIndex<2> built(w.pts, &w.corpus, w.opt);
  std::string bytes = SaveFlatToBytes(built);
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  OrpKwIndex<2>::FlatRoot root;
  std::memcpy(&root, bytes.data() + header.root_offset, sizeof(root));
  const SlabRef ref = root.dir_pools.*pool;
  EXPECT_GT(ref.count, 0u);
  const ObjectId bogus = 600;
  std::memcpy(bytes.data() + ref.offset, &bogus, sizeof(bogus));
  // The auditor reports the same id as a flat-layout violation, no abort.
  const audit::AuditReport report =
      audit::AuditFlatFile<OrpKwIndex<2>>(*MmapFile::FromBytes(bytes));
  EXPECT_TRUE(report.Has(audit::AuditCheck::kFlatLayout))
      << report.ToString();
  return bytes;
}

template <typename Index = OrpKwIndex<2>>
void LoadWithWorkloadCorpus(const std::string& bytes) {
  Workload w = MakeWorkload(600, 61);
  auto loaded = Index::LoadFlat(MmapFile::FromBytes(bytes), &w.corpus);
}

// Queries index the rank points and the corpus with pool ids unchecked, so
// the load refuses an out-of-range id in either object-id pool.
TEST(FlatLayoutDeathTest, OutOfRangePivotIdAborts) {
  const std::string bytes = WithOutOfRangePoolId(&FlatDirPools::pivot_pool);
  EXPECT_DEATH(LoadWithWorkloadCorpus(bytes),
               "flat pivot object id 600 at pool entry 0 out of range");
}

TEST(FlatLayoutDeathTest, OutOfRangeMaterializedIdAborts) {
  const std::string bytes = WithOutOfRangePoolId(&FlatDirPools::mat_obj_pool);
  EXPECT_DEATH(LoadWithWorkloadCorpus(bytes),
               "flat materialized object id 600 at pool entry 0 out of range");
}

// A container whose persisted k is patched: queries size their keyword
// scratch by the constructors' bound, so the load refuses any other k.
template <typename Index>
std::string WithPersistedK(int k) {
  Workload w = MakeWorkload(600, 61);
  const Index built(w.pts, &w.corpus, w.opt);
  std::string bytes = SaveFlatToBytes(built);
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  typename Index::FlatRoot root;
  std::memcpy(&root, bytes.data() + header.root_offset, sizeof(root));
  root.options.k = k;
  std::memcpy(bytes.data() + header.root_offset, &root, sizeof(root));
  const audit::AuditReport report =
      audit::AuditFlatFile<Index>(*MmapFile::FromBytes(bytes));
  EXPECT_TRUE(report.Has(audit::AuditCheck::kFlatLayout))
      << report.ToString();
  return bytes;
}

TEST(FlatLayoutDeathTest, PersistedKAboveEightAborts) {
  const std::string bytes = WithPersistedK<OrpKwIndex<2>>(9);
  EXPECT_DEATH(LoadWithWorkloadCorpus(bytes),
               "k must be in \\[2, 8\\], got 9");
}

TEST(FlatLayoutDeathTest, PersistedKZeroAborts) {
  const std::string bytes = WithPersistedK<OrpKwIndex<2>>(0);
  EXPECT_DEATH(LoadWithWorkloadCorpus(bytes),
               "k must be in \\[2, 8\\], got 0");
}

TEST(FlatLayoutDeathTest, SpKwBoxPersistedKAboveEightAborts) {
  const std::string bytes = WithPersistedK<SpKwBoxIndex<2>>(9);
  EXPECT_DEATH(LoadWithWorkloadCorpus<SpKwBoxIndex<2>>(bytes),
               "k must be in \\[2, 8\\], got 9");
}

// ---- Intersection kernels ----

std::vector<ObjectId> MakeSortedList(Rng* rng, size_t n, uint32_t universe) {
  std::vector<ObjectId> v;
  v.reserve(n);
  uint32_t cur = 0;
  for (size_t i = 0; i < n && cur < universe; ++i) {
    cur += 1 + rng->NextBounded(universe / std::max<size_t>(n, 1) + 1);
    if (cur >= universe) break;
    v.push_back(cur);
  }
  return v;
}

TEST(SimdIntersect, KernelsAgreeWithStdSetIntersection) {
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t na = rng.NextBounded(300);
    const size_t nb = rng.NextBounded(300);
    const auto a = MakeSortedList(&rng, na, 4000);
    const auto b = MakeSortedList(&rng, nb, 4000);
    std::vector<ObjectId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    for (const IntersectKernel kernel :
         {IntersectKernel::kScalar, IntersectKernel::kAvx2,
          IntersectKernel::kAuto}) {
      std::vector<ObjectId> got;
      IntersectSorted(a, b, &got, kernel);
      EXPECT_EQ(got, expected) << "kernel=" << static_cast<int>(kernel)
                               << " |a|=" << a.size() << " |b|=" << b.size();
    }
  }
}

TEST(SimdIntersect, SkewedPairsTakeTheGallopPathCorrectly) {
  Rng rng(67);
  // Extreme imbalance exercises the skew cutoff inside the AVX2 kernel.
  std::vector<ObjectId> big;
  for (uint32_t i = 0; i < 50000; i += 2) big.push_back(i);
  const std::vector<ObjectId> small = {0, 2, 31337, 49998, 49999};
  std::vector<ObjectId> expected;
  std::set_intersection(small.begin(), small.end(), big.begin(), big.end(),
                        std::back_inserter(expected));
  for (const IntersectKernel kernel :
       {IntersectKernel::kScalar, IntersectKernel::kAvx2}) {
    std::vector<ObjectId> got;
    IntersectSorted(small, big, &got, kernel);
    EXPECT_EQ(got, expected);
  }
}

TEST(SimdIntersect, MultiWayMatchesInvertedIndexBaseline) {
  Rng rng(71);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 64;
  Corpus corpus = GenerateCorpus(spec, &rng);
  InvertedIndex scalar_index(corpus);
  scalar_index.set_intersect_kernel(IntersectKernel::kScalar);
  InvertedIndex simd_index(corpus);
  simd_index.set_intersect_kernel(IntersectKernel::kAvx2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto kws =
        PickQueryKeywords(corpus, 2 + trial % 2, KeywordPick::kCooccurring,
                          &rng);
    EXPECT_EQ(scalar_index.Intersect(kws), simd_index.Intersect(kws));
  }
}

}  // namespace
}  // namespace kwsc
