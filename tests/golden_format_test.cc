// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Golden-format tests: the committed files under tests/golden/ are the
// ground truth for the v2 flat format of two persisted families, the corpus
// container and the dynamic checkpoint. Three properties per file:
//
//   1. Regeneration — building the golden workload today and saving it
//      produces the committed bytes exactly. Any divergence means the
//      serialization code changed the format (deliberately or not); the
//      FORMATS.lock drift gate will demand the version bump, this test
//      demands the golden refresh (tests/golden_util.h says how).
//   2. Readability — the committed files load with today's readers.
//   3. Health — every loaded index passes its deep structural audit, so the
//      goldens keep exercising the real validation paths, not just framing.
//
// The corpus golden also anchors a corruption sweep: every single-byte
// change and every truncation of it is refused or loads a sound corpus.

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "audit/index_auditor.h"
#include "common/flat_arena.h"
#include "common/random.h"
#include "core/dynamic_index.h"
#include "golden_util.h"
#include "test_util.h"

namespace kwsc {
namespace {

#ifndef KWSC_SOURCE_DIR
#error "golden_format_test requires the KWSC_SOURCE_DIR compile definition"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(KWSC_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name
                         << "; regenerate: build/tests/make_golden "
                            "tests/golden";
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(GoldenFormat, RegenerationIsByteIdentical) {
  for (const golden::GoldenFile& file : golden::RenderAll()) {
    const std::string committed = ReadGolden(file.name);
    ASSERT_FALSE(file.bytes.empty()) << file.name;
    EXPECT_EQ(committed.size(), file.bytes.size()) << file.name;
    EXPECT_TRUE(committed == file.bytes)
        << file.name
        << ": serialization output drifted from the committed golden; if "
           "the format change is deliberate, bump the version constant "
           "(src/core/format_versions.h), regenerate FORMATS.lock and the "
           "goldens (tests/golden_util.h header comment), and commit all "
           "three together";
  }
}

TEST(GoldenFormat, CorpusV2LoadsAndMatches) {
  std::istringstream in(ReadGolden("corpus_v2.bin"));
  const Corpus loaded = Corpus::Load(&in);
  const Corpus built = golden::MakeCorpus();
  ASSERT_EQ(loaded.num_objects(), built.num_objects());
  EXPECT_EQ(loaded.vocab_size(), built.vocab_size());
  for (ObjectId e = 0; e < built.num_objects(); ++e) {
    for (KeywordId w = 0; w < built.vocab_size(); ++w) {
      EXPECT_EQ(loaded.Contains(e, w), built.Contains(e, w));
    }
  }
}

// Every single-byte change (each bit flipped alone, the byte inverted, and
// one value drawn per byte from a fixed seed) and every truncation of the
// corpus golden is either refused by the container check through a
// recording sink, without an abort, or loads through Corpus::Load into a
// corpus whose documents are non-empty, sorted and distinct, with N their
// total size. Both halves must occur. Runs under the sanitizer presets too.
TEST(GoldenFormat, CorpusV2CorruptionSweep) {
  const std::string golden = ReadGolden("corpus_v2.bin");
  ASSERT_FALSE(golden.empty());
  size_t refused = 0;
  size_t loaded = 0;
  const auto check = [&](const std::string& bytes) {
    std::vector<std::string> complaints;
    const FlatErrorSink record = [&complaints](const std::string& message) {
      complaints.push_back(message);
    };
    if (!Corpus::FromFlat(*MmapFile::FromBytes(bytes), record).has_value()) {
      EXPECT_EQ(complaints.size(), 1u);
      ++refused;
      return;
    }
    EXPECT_TRUE(complaints.empty());
    std::istringstream in(bytes);
    const Corpus corpus = Corpus::Load(&in);
    uint64_t weight = 0;
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      const DocumentView doc = corpus.doc(e);
      EXPECT_GT(doc.size(), 0u) << e;
      EXPECT_EQ(std::adjacent_find(doc.begin(), doc.end(),
                                   std::greater_equal<KeywordId>()),
                doc.end())
          << e;
      weight += doc.size();
    }
    EXPECT_EQ(weight, corpus.total_weight());
    ++loaded;
  };
  Rng rng(26);
  for (size_t at = 0; at < golden.size(); ++at) {
    std::vector<uint8_t> masks = {0xFF};
    for (int bit = 0; bit < 8; ++bit) masks.push_back(uint8_t{1} << bit);
    masks.push_back(static_cast<uint8_t>(1 + rng.NextBounded(255)));
    for (const uint8_t mask : masks) {
      std::string changed = golden;
      changed[at] = static_cast<char>(changed[at] ^ mask);
      check(changed);
    }
  }
  for (size_t size = 0; size < golden.size(); ++size) {
    check(golden.substr(0, size));
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(GoldenFormat, OrpKwV2LoadsAuditClean) {
  const Corpus corpus = golden::MakeCorpus();
  const auto file = MmapFile::Open(GoldenPath("orp_kw_v2.bin"));
  ASSERT_NE(file, nullptr);
  const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(file, &corpus);
  testing::ExpectAuditClean(loaded);
}

TEST(GoldenFormat, SpKwBoxV2LoadsAuditClean) {
  const Corpus corpus = golden::MakeCorpus();
  const auto file = MmapFile::Open(GoldenPath("sp_kw_box_v2.bin"));
  ASSERT_NE(file, nullptr);
  const SpKwBoxIndex<2> loaded = SpKwBoxIndex<2>::LoadFlat(file, &corpus);
  testing::ExpectAuditClean(loaded);
}

TEST(GoldenFormat, DynamicCheckpointV3LoadsAuditCleanAndMatchesReplay) {
  std::istringstream in(ReadGolden("dynamic_checkpoint_v3.bin"));
  const auto loaded = DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in);
  ASSERT_NE(loaded, nullptr);
  testing::ExpectAuditClean(*loaded);
  const auto replayed = golden::MakeDynamic();
  EXPECT_EQ(loaded->num_objects(), replayed->num_objects());
  EXPECT_EQ(loaded->live_objects(), replayed->live_objects());
  // Same behaviour, and re-saving reproduces the committed bytes (each
  // level attaches its stored container, which re-saves to itself).
  const Box<2> range{Point<2>{{0, 0}}, Point<2>{{7, 6}}};
  for (KeywordId w1 = 0; w1 < 6; ++w1) {
    for (KeywordId w2 = w1 + 1; w2 < 6; ++w2) {
      const std::vector<KeywordId> kws = {w1, w2};
      EXPECT_EQ(loaded->Query(range, kws), replayed->Query(range, kws))
          << w1 << "," << w2;
    }
  }
  std::ostringstream resaved;
  loaded->SaveCheckpoint(&resaved);
  EXPECT_EQ(resaved.str(), ReadGolden("dynamic_checkpoint_v3.bin"));
}

// The queries a fresh build answers, the golden-loaded indexes must answer
// identically — format stability is only worth locking if the decoded
// structure behaves the same.
TEST(GoldenFormat, GoldenLoadedQueriesMatchFreshBuild) {
  const Corpus corpus = golden::MakeCorpus();
  const auto pts = golden::MakePoints();
  const OrpKwIndex<2> built(pts, &corpus, golden::MakeOptions());
  const auto file = MmapFile::Open(GoldenPath("orp_kw_v2.bin"));
  ASSERT_NE(file, nullptr);
  const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(file, &corpus);
  const Box<2> range{Point<2>{{0, 0}}, Point<2>{{7, 6}}};
  // Exactly k=2 keywords per query: every unordered vocabulary pair.
  for (KeywordId w1 = 0; w1 < 6; ++w1) {
    for (KeywordId w2 = w1 + 1; w2 < 6; ++w2) {
      const std::vector<KeywordId> kws = {w1, w2};
      EXPECT_EQ(built.Query(range, kws), loaded.Query(range, kws))
          << w1 << "," << w2;
    }
  }
}

}  // namespace
}  // namespace kwsc
