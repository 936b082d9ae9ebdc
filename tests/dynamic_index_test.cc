// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the generic batch-dynamic layer (core/dynamic_index.h) across
// three families: ORP-KW (points/boxes), SP-KW-Box (points/halfspace
// conjunctions), and RR-KW (rectangles/rectangles). The hard invariants:
// batched insert/delete sequences answer exactly like a freshly built
// static index over the live object set, the multi-level auditor is clean
// at every checkpoint, and Compact() after quiescence saves the same flat
// bytes as a from-scratch build. Plus: checkpoint round-trips (and the
// rejection of a checkpoint naming an object it does not hold, listing one
// twice or losing one, a level container that is corrupt, foreign or cut
// short, or a "KWDY" stream), registry-once memory accounting through
// insert→delete→reinsert cycles, and background merges with
// concurrent-consistency spot checks.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_arena.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "geom/halfspace.h"
#include "test_util.h"

namespace kwsc {
namespace {

using testing::ExpectAuditClean;
using testing::SaveFlatToBytes;
using testing::Sorted;

Document RandomDoc(Rng& rng) {
  std::vector<KeywordId> kws;
  const int len = 2 + static_cast<int>(rng.NextBounded(4));
  while (static_cast<int>(kws.size()) < len) {
    KeywordId w = static_cast<KeywordId>(rng.NextBounded(30));
    if (std::find(kws.begin(), kws.end(), w) == kws.end()) kws.push_back(w);
  }
  return Document(std::move(kws));
}

std::vector<KeywordId> RandomQueryKeywords(Rng& rng) {
  return {static_cast<KeywordId>(rng.NextBounded(15)),
          static_cast<KeywordId>(15 + rng.NextBounded(15))};
}

// ---- Per-family generators. ----

struct OrpFamilyCase {
  using Family = OrpKwIndex<2>;
  static Point<2> MakeGeom(Rng& rng) {
    return Point<2>{{rng.NextDouble(), rng.NextDouble()}};
  }
  static Box<2> MakeRegion(Rng& rng) {
    Box<2> q;
    for (int dim = 0; dim < 2; ++dim) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      q.lo[dim] = std::min(a, b);
      q.hi[dim] = std::max(a, b);
    }
    return q;
  }
};

struct SpFamilyCase {
  using Family = SpKwBoxIndex<2>;
  static Point<2> MakeGeom(Rng& rng) {
    return Point<2>{{rng.NextDouble(), rng.NextDouble()}};
  }
  static ConvexQuery<2> MakeRegion(Rng& rng) {
    ConvexQuery<2> q;
    for (int i = 0; i < 3; ++i) {
      Halfspace<2> h;
      h.coeffs = {rng.NextDouble() * 2 - 1, rng.NextDouble() * 2 - 1};
      h.rhs = rng.NextDouble() * 1.2 - 0.2;
      q.constraints.push_back(h);
    }
    return q;
  }
};

struct RrFamilyCase {
  using Family = RrKwIndex<1>;
  static Box<1> MakeGeom(Rng& rng) {
    Box<1> r;
    r.lo[0] = rng.NextDouble();
    r.hi[0] = r.lo[0] + rng.NextDouble() * 0.1;
    return r;
  }
  static Box<1> MakeRegion(Rng& rng) {
    Box<1> q;
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    q.lo[0] = std::min(a, b);
    q.hi[0] = std::max(a, b);
    return q;
  }
};

template <typename Case>
class DynamicIndexTest : public ::testing::Test {};

using FamilyCases =
    ::testing::Types<OrpFamilyCase, SpFamilyCase, RrFamilyCase>;
TYPED_TEST_SUITE(DynamicIndexTest, FamilyCases);

// Batched inserts and tombstone deletes, checked at every round against a
// freshly built static index over the live object set: identical answers,
// clean multi-level audits, and (after quiescence) byte-identical SaveFlat.
TYPED_TEST(DynamicIndexTest, BatchedUpdatesMatchFreshStaticBuild) {
  using Case = TypeParam;
  using Family = typename Case::Family;
  using Geom = typename Family::DynamicGeomType;
  Rng rng(977);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<Family> dynamic(opt, /*buffer_capacity=*/16);

  std::vector<Geom> geoms;
  std::vector<Document> docs;
  std::vector<bool> live;
  for (int round = 0; round < 10; ++round) {
    const size_t batch = 1 + rng.NextBounded(40);
    std::vector<Geom> batch_geoms;
    std::vector<Document> batch_docs;
    for (size_t i = 0; i < batch; ++i) {
      batch_geoms.push_back(Case::MakeGeom(rng));
      batch_docs.push_back(RandomDoc(rng));
      geoms.push_back(batch_geoms.back());
      docs.push_back(batch_docs.back());
      live.push_back(true);
    }
    const ObjectId first = dynamic.InsertBatch(batch_geoms, batch_docs);
    EXPECT_EQ(first, static_cast<ObjectId>(geoms.size() - batch));

    if (round > 0) {
      std::vector<ObjectId> doomed;
      for (ObjectId id = 0; id < live.size(); ++id) {
        if (live[id] && rng.NextBounded(5) == 0) doomed.push_back(id);
      }
      EXPECT_EQ(dynamic.DeleteBatch(doomed), doomed.size());
      for (ObjectId id : doomed) live[id] = false;
    }

    ExpectAuditClean(dynamic);
    EXPECT_EQ(dynamic.num_objects(), geoms.size());
    EXPECT_EQ(dynamic.live_objects(),
              static_cast<size_t>(
                  std::count(live.begin(), live.end(), true)));

    // Oracle: a fresh static index over the live objects, ids translated
    // back to global insertion order.
    std::vector<Geom> live_geoms;
    std::vector<Document> live_docs;
    std::vector<ObjectId> live_ids;
    for (ObjectId id = 0; id < live.size(); ++id) {
      if (!live[id]) continue;
      live_geoms.push_back(geoms[id]);
      live_docs.push_back(docs[id]);
      live_ids.push_back(id);
    }
    const Corpus corpus(live_docs);
    const Family fresh(live_geoms, &corpus, opt);
    for (int qi = 0; qi < 6; ++qi) {
      const auto region = Case::MakeRegion(rng);
      const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
      std::vector<ObjectId> want;
      for (ObjectId local : fresh.Query(region, kws)) {
        want.push_back(live_ids[local]);
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(Sorted(dynamic.Query(region, kws)), want)
          << "round " << round << " query " << qi;
    }
  }

  // SaveFlat after quiescence == from-scratch build over the live set.
  dynamic.WaitQuiescent();
  const auto compact = dynamic.Compact();
  std::vector<Geom> live_geoms;
  std::vector<Document> live_docs;
  std::vector<ObjectId> live_ids;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id]) continue;
    live_geoms.push_back(geoms[id]);
    live_docs.push_back(docs[id]);
    live_ids.push_back(id);
  }
  EXPECT_EQ(compact.ids, live_ids);
  const Corpus corpus(live_docs);
  const Family scratch(live_geoms, &corpus, opt);
  EXPECT_EQ(SaveFlatToBytes(*compact.index), SaveFlatToBytes(scratch));
}

// The "KWDY" checkpoint round-trips: a loaded checkpoint answers like the
// original, audits clean, and re-saves byte-identically.
TYPED_TEST(DynamicIndexTest, CheckpointRoundTripsByteIdentically) {
  using Case = TypeParam;
  using Family = typename Case::Family;
  Rng rng(1789);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<Family> dynamic(opt, /*buffer_capacity=*/8);
  for (int i = 0; i < 83; ++i) {
    const ObjectId id = dynamic.Insert(Case::MakeGeom(rng), RandomDoc(rng));
    if (i % 7 == 3) {
      EXPECT_TRUE(dynamic.Delete(id));
    }
  }

  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  std::istringstream in(out.str());
  const auto loaded = DynamicIndex<Family>::LoadCheckpoint(&in);
  ASSERT_NE(loaded, nullptr);
  ExpectAuditClean(*loaded);
  EXPECT_EQ(loaded->num_objects(), dynamic.num_objects());
  EXPECT_EQ(loaded->live_objects(), dynamic.live_objects());
  EXPECT_EQ(loaded->ActiveLevels(), dynamic.ActiveLevels());
  for (int qi = 0; qi < 8; ++qi) {
    const auto region = Case::MakeRegion(rng);
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    EXPECT_EQ(Sorted(loaded->Query(region, kws)),
              Sorted(dynamic.Query(region, kws)));
  }
  std::ostringstream again;
  loaded->SaveCheckpoint(&again);
  EXPECT_EQ(out.str(), again.str());
}

// A NaN box bound admits no object: the buffer scan (Box::Contains) and the
// static levels (rank conversion) agree with the brute-force scan.
TEST(DynamicIndexQueries, NaNBoundsMatchBruteForce) {
  Rng rng(2027);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/64);
  std::vector<Point<2>> geoms;
  std::vector<Document> docs;
  for (int i = 0; i < 2000; ++i) {
    geoms.push_back(OrpFamilyCase::MakeGeom(rng));
    docs.push_back(RandomDoc(rng));
  }
  dynamic.InsertBatch(geoms, docs);
  ASSERT_GT(dynamic.ActiveLevels(), 0u);
  const Corpus corpus(docs);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int qi = 0; qi < 4; ++qi) {
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    for (int dim = 0; dim < 2; ++dim) {
      for (const bool nan_lo : {true, false}) {
        Box<2> q{{{0.0, 0.0}}, {{0.5, 1.0}}};
        (nan_lo ? q.lo : q.hi)[dim] = nan;
        EXPECT_EQ(Sorted(dynamic.Query(q, kws)),
                  testing::BruteBox(std::span<const Point<2>>(geoms), corpus,
                                    q, kws))
            << dim << nan_lo;
      }
    }
  }
}

void LoadCheckpointBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  auto loaded = DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in);
}

// The root of the checkpoint container, which opens every checkpoint, and
// its offset in `bytes`.
PersistedDynamicCheckpoint CheckpointRoot(const std::string& bytes,
                                          size_t* root_at) {
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  *root_at = header.root_offset;
  PersistedDynamicCheckpoint root;
  std::memcpy(&root, bytes.data() + header.root_offset, sizeof(root));
  return root;
}

// Overwrites entry `i` of the checkpoint container's ObjectId slab `ref`.
void SetListedId(std::string* bytes, SlabRef ref, size_t i, ObjectId id) {
  ASSERT_LT(i, ref.count);
  std::memcpy(bytes->data() + ref.offset + i * sizeof(ObjectId), &id,
              sizeof(id));
}

// Eleven objects through a capacity-8 buffer: 0..7 carry into slot 0 and
// 8, 9, 10 stay buffered. Objects 2 and 9 are tombstoned.
std::string LevelAndBufferCheckpoint() {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  for (int i = 0; i < 11; ++i) {
    dynamic.Insert({{0.05 * i, 0.3 * (i % 3)}}, Document{5, 6});
  }
  EXPECT_TRUE(dynamic.Delete(2));
  EXPECT_TRUE(dynamic.Delete(9));
  EXPECT_EQ(dynamic.ActiveLevels(), 1u);
  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  return out.str();
}

TEST(DynamicIndexCheckpoint, LevelAndBufferCheckpointLoads) {
  const std::string bytes = LevelAndBufferCheckpoint();
  size_t root_at = 0;
  const PersistedDynamicCheckpoint root = CheckpointRoot(bytes, &root_at);
  EXPECT_EQ(root.num_objects, 11u);
  EXPECT_EQ(root.live_objects, 9u);
  EXPECT_EQ(root.dead_ids.count, 2u);
  EXPECT_EQ(root.buffer_ids.count, 3u);
  EXPECT_EQ(root.level_ids.count, 8u);
  std::istringstream in(bytes);
  const auto loaded = DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in);
  ExpectAuditClean(*loaded);
  EXPECT_EQ(loaded->live_objects(), 9u);
}

// A checkpoint whose buffer names an object the registry does not hold is
// refused at load, before publishing a snapshot indexes the registry by it.
TEST(DynamicIndexCheckpointDeath, OutOfRangeBufferIdRejected) {
  std::string bytes = LevelAndBufferCheckpoint();
  size_t root_at = 0;
  const PersistedDynamicCheckpoint root = CheckpointRoot(bytes, &root_at);
  SetListedId(&bytes, root.buffer_ids, 2, ObjectId{1} << 30);
  EXPECT_DEATH(LoadCheckpointBytes(bytes),
               "object 1073741824 out of range or listed twice");
}

// An object both buffered and in a level would be answered twice by every
// matching query, and the next carry would build a level holding it twice.
TEST(DynamicIndexCheckpointDeath, ObjectInBufferAndLevelRejected) {
  std::string bytes = LevelAndBufferCheckpoint();
  size_t root_at = 0;
  const PersistedDynamicCheckpoint root = CheckpointRoot(bytes, &root_at);
  SetListedId(&bytes, root.buffer_ids, 0, 3);  // Object 3 is in slot 0.
  EXPECT_DEATH(LoadCheckpointBytes(bytes),
               "object 3 out of range or listed twice");
}

// A live object in neither the buffer nor a level would be lost silently.
TEST(DynamicIndexCheckpointDeath, UnlistedLiveObjectRejected) {
  std::string bytes = LevelAndBufferCheckpoint();
  size_t root_at = 0;
  PersistedDynamicCheckpoint root = CheckpointRoot(bytes, &root_at);
  root.buffer_ids.count = 2;  // Drops buffered object 10.
  std::memcpy(bytes.data() + root_at, &root, sizeof(root));
  EXPECT_DEATH(LoadCheckpointBytes(bytes),
               "live object 10 is in no buffer or level");
}

// A tombstone listed twice would make live_objects() count it twice.
TEST(DynamicIndexCheckpointDeath, RepeatedTombstoneRejected) {
  std::string bytes = LevelAndBufferCheckpoint();
  size_t root_at = 0;
  const PersistedDynamicCheckpoint root = CheckpointRoot(bytes, &root_at);
  SetListedId(&bytes, root.dead_ids, 1, 2);  // {2, 9} -> {2, 2}.
  EXPECT_DEATH(LoadCheckpointBytes(bytes),
               "tombstone id 2 out of range or repeated");
}

// The eight objects of the one-level checkpoint below.
std::vector<Point<2>> OneLevelPoints() {
  std::vector<Point<2>> pts;
  for (int i = 0; i < 8; ++i) pts.push_back({{0.1 * i, 0.3 * (i % 3)}});
  return pts;
}

std::vector<Document> OneLevelDocuments() {
  std::vector<Document> docs;
  for (KeywordId i = 0; i < 8; ++i) docs.push_back(Document{i, 20, 21});
  return docs;
}

// A checkpoint with one level: the eight objects through a capacity-8
// buffer carry into slot 0, and that level's flat container ends the
// stream. `*container_at` receives the container's offset.
std::string OneLevelCheckpoint(size_t* container_at) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  dynamic.InsertBatch(OneLevelPoints(), OneLevelDocuments());
  EXPECT_EQ(dynamic.ActiveLevels(), 1u);
  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  const std::string bytes = out.str();
  const size_t at = bytes.rfind("KWF2");
  EXPECT_NE(at, std::string::npos);
  FlatHeader header;
  std::memcpy(&header, bytes.data() + at, sizeof(header));
  EXPECT_EQ(header.total_bytes, bytes.size() - at);
  *container_at = at;
  return bytes;
}

// The one-level checkpoint with its container replaced by `container`.
std::string WithLevelContainer(const std::string& bytes, size_t at,
                               const std::string& container) {
  return bytes.substr(0, at) + container;
}

// A loaded level keeps its container on the heap: the level's index holds
// the stored bytes, charges them, and MemoryBytes counts that index.
TEST(DynamicIndexCheckpoint, LoadedLevelChargesItsContainer) {
  size_t at = 0;
  const std::string bytes = OneLevelCheckpoint(&at);
  std::istringstream in(bytes);
  const auto loaded = DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in);
  const auto view = loaded->DebugAuditView();
  ASSERT_EQ(view.levels.size(), 1u);
  const auto& level = *view.levels[0];
  const size_t container = level.index->flat_container().size();
  EXPECT_EQ(container, bytes.size() - at);
  EXPECT_GE(level.index->MemoryBytes(), container);
  EXPECT_GE(loaded->MemoryBytes(),
            level.corpus->MemoryBytes() + level.index->MemoryBytes());
}

// A level's container comes from the file, so it gets the static load's
// checks: an object id past the level's corpus is refused before a query
// can index the rank points with it.
TEST(DynamicIndexCheckpointDeath, OutOfRangeLevelContainerIdRejected) {
  size_t at = 0;
  std::string bytes = OneLevelCheckpoint(&at);
  FlatHeader header;
  std::memcpy(&header, bytes.data() + at, sizeof(header));
  OrpKwIndex<2>::FlatRoot root;
  std::memcpy(&root, bytes.data() + at + header.root_offset, sizeof(root));
  ASSERT_GT(root.dir_pools.pivot_pool.count, 0u);
  const ObjectId bogus = 8;  // The level holds objects 0..7.
  std::memcpy(bytes.data() + at + root.dir_pools.pivot_pool.offset, &bogus,
              sizeof(bogus));
  EXPECT_DEATH(LoadCheckpointBytes(bytes),
               "flat pivot object id 8 at pool entry 0 out of range");
}

// The container of an index over another object set does not attach to the
// level's corpus.
TEST(DynamicIndexCheckpointDeath, ForeignLevelContainerRejected) {
  size_t at = 0;
  const std::string bytes = OneLevelCheckpoint(&at);
  const Corpus other(std::vector<Document>{Document{1, 2}, Document{2, 3}});
  FrameworkOptions opt;
  opt.k = 2;
  const std::vector<Point<2>> pts = {Point<2>{{0.1, 0.2}},
                                     Point<2>{{0.3, 0.4}}};
  const std::string foreign = SaveFlatToBytes(OrpKwIndex<2>(pts, &other, opt));
  EXPECT_DEATH(LoadCheckpointBytes(WithLevelContainer(bytes, at, foreign)),
               "corpus object count mismatch");
}

// A container over the level's own objects but built for another k passes
// LoadFlat's corpus checks; the level is still refused, because the dynamic
// index hands every level queries of its own k.
TEST(DynamicIndexCheckpointDeath, OtherKLevelContainerRejected) {
  size_t at = 0;
  const std::string bytes = OneLevelCheckpoint(&at);
  const Corpus corpus(OneLevelDocuments());
  FrameworkOptions opt;
  opt.k = 3;
  const std::string other_k =
      SaveFlatToBytes(OrpKwIndex<2>(OneLevelPoints(), &corpus, opt));
  EXPECT_DEATH(LoadCheckpointBytes(WithLevelContainer(bytes, at, other_k)),
               "checkpoint level has k = 3, the index k = 2");
}

// A stream cut inside a level's container is refused when the container's
// header is read, before any allocation or attach.
TEST(DynamicIndexCheckpointDeath, TruncatedLevelContainerRejected) {
  size_t at = 0;
  const std::string bytes = OneLevelCheckpoint(&at);
  EXPECT_DEATH(LoadCheckpointBytes(bytes.substr(0, at + kFlatAlignment)),
               "exceeds the remaining stream");
}

// The "KWDY" streams (v1 stored only each level's id list, v2 also its
// container) have no reader: a file opening with that tag fails the first
// container's magic.
TEST(DynamicIndexCheckpointDeath, KwdyStreamRejected) {
  std::string bytes(kFlatAlignment, '\0');
  std::memcpy(bytes.data(), "KWDY", 4);
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 4, &v2, sizeof(v2));
  EXPECT_DEATH(LoadCheckpointBytes(bytes), "flat magic mismatch");
}

// A checkpoint container under another family's tag is refused by its tag.
TEST(DynamicIndexCheckpointDeath, WrongCheckpointTagRejected) {
  size_t at = 0;
  std::string bytes = OneLevelCheckpoint(&at);
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.family_tag = Corpus::kFlatFamilyTag;
  std::memcpy(bytes.data(), &header, sizeof(header));
  EXPECT_DEATH(LoadCheckpointBytes(bytes), "flat family tag mismatch");
}

// Delete semantics: tombstoning is idempotent, ids are never reused, and
// deleted objects vanish from answers immediately — before any carry
// physically drops them.
TEST(DynamicIndexDeletes, TombstonesFilterImmediately) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  const ObjectId a = dynamic.Insert({{0.2, 0.2}}, Document{1, 2});
  const ObjectId b = dynamic.Insert({{0.8, 0.8}}, Document{1, 2});
  const std::vector<KeywordId> kws = {1, 2};
  const Box<2> everywhere{{{0, 0}}, {{1, 1}}};
  EXPECT_EQ(Sorted(dynamic.Query(everywhere, kws)),
            (std::vector<ObjectId>{a, b}));
  EXPECT_TRUE(dynamic.Delete(a));
  EXPECT_FALSE(dynamic.Delete(a));  // Idempotent: already tombstoned.
  EXPECT_EQ(dynamic.Query(everywhere, kws), (std::vector<ObjectId>{b}));
  EXPECT_EQ(dynamic.live_objects(), 1u);
  EXPECT_EQ(dynamic.num_objects(), 2u);
  const ObjectId c = dynamic.Insert({{0.5, 0.5}}, Document{1, 2});
  EXPECT_EQ(c, 2u);  // Ids are never reused after Delete.
  ExpectAuditClean(dynamic);
}

// Registry-once accounting through insert→delete→reinsert cycles: a
// tombstoned id's document stays charged exactly once (the registry retains
// it; ids are never reused), and a reinsert of the same content charges
// exactly one more copy — never zero, never two.
TEST(DynamicIndexMemory, RegistryOnceAccountingSurvivesDeleteReinsertCycles) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  Rng rng(641);
  for (int i = 0; i < 8; ++i) {  // Fill to exactly one carry: empty buffer.
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}},
                   Document{static_cast<KeywordId>(i), 100});
  }
  std::vector<KeywordId> big(10000);
  std::iota(big.begin(), big.end(), 0);
  const Document big_doc(big);
  const size_t doc_bytes = big.size() * sizeof(KeywordId);

  size_t base = dynamic.MemoryBytes();
  for (int cycle = 0; cycle < 3; ++cycle) {
    const ObjectId id = dynamic.Insert({{0.5, 0.5}}, big_doc);
    const size_t after_insert = dynamic.MemoryBytes();
    EXPECT_GE(after_insert - base, doc_bytes) << "cycle " << cycle;
    EXPECT_LT(after_insert - base, doc_bytes + doc_bytes / 2)
        << "cycle " << cycle;

    EXPECT_TRUE(dynamic.Delete(id));
    const size_t after_delete = dynamic.MemoryBytes();
    // The tombstoned registry entry is retained and charged exactly once:
    // deleting neither frees it nor double-counts it.
    EXPECT_GE(after_delete - base, doc_bytes) << "cycle " << cycle;
    EXPECT_LT(after_delete - base, doc_bytes + doc_bytes / 2)
        << "cycle " << cycle;
    base = after_delete;
  }
  ExpectAuditClean(dynamic);
}

// A carry that gathers tombstoned members drops them from the level but
// keeps them in the registry: queries stay correct and audits stay clean
// across the physical reclamation.
TEST(DynamicIndexDeletes, CarryDropsTombstonedMembers) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  Rng rng(733);
  std::vector<bool> live;
  for (int i = 0; i < 40; ++i) {
    const ObjectId id = dynamic.Insert(
        {{rng.NextDouble(), rng.NextDouble()}},
        Document{static_cast<KeywordId>(i % 5),
                 static_cast<KeywordId>(5 + i % 3)});
    live.push_back(true);
    if (i % 3 == 1) {
      EXPECT_TRUE(dynamic.Delete(id));
      live[id] = false;
    }
    ExpectAuditClean(dynamic);
  }
  // Tombstoned members gathered by carries were dropped; the level set now
  // holds fewer members than were ever inserted, but every live id answers.
  const Box<2> everywhere{{{0, 0}}, {{1, 1}}};
  const std::vector<KeywordId> kws = {0, 5};
  std::vector<ObjectId> want;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (live[id] && id % 5 == 0 && (5 + id % 3) == 5) want.push_back(id);
  }
  EXPECT_EQ(Sorted(dynamic.Query(everywhere, kws)), want);
  EXPECT_EQ(dynamic.num_objects(), 40u);
  EXPECT_LT(dynamic.live_objects(), 40u);
}

// Background merges: with a merge pool, a single writer's inserts/deletes
// publish immediately (queries between operations always see the full
// object set) while carries rebuild levels off-thread. At quiescence the
// audits and the compacted byte-identity hold exactly as in the
// synchronous mode.
TEST(DynamicIndexConcurrent, BackgroundMergesKeepAnswersExact) {
  ThreadPool pool(3);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/32, &pool);
  Rng rng(1313);
  std::vector<Point<2>> points;
  std::vector<Document> docs;
  std::vector<bool> live;
  for (int step = 0; step < 1200; ++step) {
    Point<2> p{{rng.NextDouble(), rng.NextDouble()}};
    Document doc = RandomDoc(rng);
    points.push_back(p);
    docs.push_back(doc);
    live.push_back(true);
    dynamic.Insert(p, std::move(doc));
    if (step % 11 == 5) {
      const ObjectId victim = static_cast<ObjectId>(rng.NextBounded(live.size()));
      if (live[victim]) {
        EXPECT_TRUE(dynamic.Delete(victim));
        live[victim] = false;
      }
    }
    if (step % 101 != 0) continue;
    // The snapshot published by the Insert above already includes every
    // object: merges change structure, never membership.
    const Box<2> q = OrpFamilyCase::MakeRegion(rng);
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    std::vector<ObjectId> want;
    for (ObjectId e = 0; e < points.size(); ++e) {
      if (live[e] && q.Contains(points[e]) &&
          docs[e].ContainsAll(kws.data(), kws.size())) {
        want.push_back(e);
      }
    }
    EXPECT_EQ(Sorted(dynamic.Query(q, kws)), want) << "step " << step;
    ExpectAuditClean(dynamic);  // Audits are safe mid-merge.
  }
  dynamic.WaitQuiescent();
  EXPECT_FALSE(dynamic.MergeInFlight());
  ExpectAuditClean(dynamic);

  const auto compact = dynamic.Compact();
  std::vector<Point<2>> live_points;
  std::vector<Document> live_docs;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id]) continue;
    live_points.push_back(points[id]);
    live_docs.push_back(docs[id]);
  }
  const Corpus corpus(live_docs);
  const OrpKwIndex<2> scratch(live_points, &corpus, opt);
  EXPECT_EQ(SaveFlatToBytes(*compact.index), SaveFlatToBytes(scratch));
}

}  // namespace
}  // namespace kwsc
