// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Round-trip tests for the stream persistence layer: the archives and the
// corpus (KWCP) stream built on them. Indexes persist only as v2 flat
// containers; tests/flat_layout_test.cc covers those.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/random.h"
#include "common/serialize.h"
#include "core/format_versions.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

TEST(Archive, PodAndVecRoundTrip) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Magic("TEST", 7);
    ar.Pod<uint32_t>(42);
    ar.Pod<double>(3.25);
    ar.Vec(std::vector<uint64_t>{1, 2, 3});
    ar.Vec(std::vector<uint16_t>{});
    ASSERT_TRUE(ar.ok());
  }
  InputArchive ar(&stream);
  EXPECT_EQ(ar.Magic("TEST"), 7u);
  EXPECT_EQ(ar.Pod<uint32_t>(), 42u);
  EXPECT_EQ(ar.Pod<double>(), 3.25);
  EXPECT_EQ(ar.Vec<uint64_t>(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(ar.Vec<uint16_t>().empty());
}

TEST(ArchiveDeath, WrongMagicAborts) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Magic("AAAA", 1);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Magic("BBBB"), "magic mismatch");
}

TEST(ArchiveDeath, TruncatedInputAborts) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint16_t>(1);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Pod<uint64_t>(), "truncated");
}

TEST(ArchiveDeath, VecLengthBeyondStreamAborts) {
  // A corrupt archive declaring a (plausible-looking) length far beyond the
  // bytes actually present must die in the remaining-bytes clamp, before
  // the allocation of size * sizeof(T).
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint64_t>(uint64_t{1} << 30);  // claims 2^30 elements...
    ar.Pod<uint32_t>(7);                  // ...but only 4 bytes follow
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Vec<uint64_t>(), "exceeds remaining archive bytes");
}

TEST(ArchiveDeath, VecLengthSlightlyBeyondStreamAborts) {
  // Off-by-one at the boundary: N elements declared, N-1 present.
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint64_t>(4);
    ar.Pod<uint32_t>(1);
    ar.Pod<uint32_t>(2);
    ar.Pod<uint32_t>(3);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Vec<uint32_t>(), "exceeds remaining archive bytes");
}

TEST(ArchiveDeath, VecLengthBeyondFileEndAborts) {
  // Through a std::filebuf the clamp takes the buffered byte count when it
  // covers a vector and measures from the end cached at construction when
  // it does not. The small vectors cross several buffer refills; the last
  // one, an element short, must still die.
  const std::string path = ::testing::TempDir() + "kwsc_serialize_vecs.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    OutputArchive ar(&out);
    for (uint32_t i = 0; i < 5000; ++i) {
      ar.Vec(std::vector<uint32_t>{i, i + 1, i + 2});
    }
    ar.Pod<uint64_t>(3);
    ar.Pod<uint32_t>(1);
    ar.Pod<uint32_t>(2);
  }
  const auto read_all = [&path] {
    std::ifstream in(path, std::ios::binary);
    InputArchive ar(&in);
    for (uint32_t i = 0; i < 5000; ++i) {
      KWSC_CHECK(ar.Vec<uint32_t>() ==
                 (std::vector<uint32_t>{i, i + 1, i + 2}));
    }
    ar.Vec<uint32_t>();
  };
  EXPECT_DEATH(read_all(), "exceeds remaining archive bytes");
  std::remove(path.c_str());
}

TEST(ArchiveDeath, CorpusCountBeyondStreamAborts) {
  // A KWCP stream declaring more documents than its bytes can hold (each
  // takes at least its 8-byte length prefix) must die in the count check,
  // not in the reserve for them (std::bad_alloc, std::length_error).
  for (const uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 61}) {
    std::stringstream stream;
    {
      OutputArchive ar(&stream);
      ar.Magic("KWCP", kCorpusFormatVersion);
      ar.Pod<uint64_t>(count);
      ar.Vec(std::vector<KeywordId>{1, 2});
    }
    EXPECT_DEATH(Corpus::Load(&stream),
                 "document count [0-9]+ exceeds remaining archive bytes");
  }
}

TEST(Archive, BufferedWriterMatchesUnbufferedByteForByte) {
  // The coalescing buffer is a pure transport optimization: the byte stream
  // must equal one produced by writing each value straight to the stream.
  std::stringstream buffered;
  std::stringstream raw;
  std::vector<uint64_t> big(20000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 2654435761u;
  {
    OutputArchive ar(&buffered);
    ar.Magic("TEST", 3);
    for (uint32_t i = 0; i < 5000; ++i) ar.Pod<uint32_t>(i);  // Many tiny Pods.
    ar.Vec(big);  // One payload far beyond the flush threshold.
    ar.Pod<uint8_t>(0xAB);
  }
  {
    raw.write("TEST", 4);
    const uint32_t version = 3;
    raw.write(reinterpret_cast<const char*>(&version), sizeof(version));
    for (uint32_t i = 0; i < 5000; ++i) {
      raw.write(reinterpret_cast<const char*>(&i), sizeof(i));
    }
    const uint64_t count = big.size();
    raw.write(reinterpret_cast<const char*>(&count), sizeof(count));
    raw.write(reinterpret_cast<const char*>(big.data()),
              static_cast<std::streamsize>(big.size() * sizeof(uint64_t)));
    const uint8_t tail = 0xAB;
    raw.write(reinterpret_cast<const char*>(&tail), sizeof(tail));
  }
  EXPECT_EQ(buffered.str(), raw.str());
}

TEST(Archive, FlushOrdersBufferedBytesBeforeRawStreamWrites) {
  // The nested-save hazard: a live archive plus a direct stream write must
  // produce bytes in program order once Flush() is called in between (see
  // OutputArchive's class comment).
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint32_t>(0x11111111);
    ar.Flush();
    const uint32_t nested = 0x22222222;
    stream.write(reinterpret_cast<const char*>(&nested), sizeof(nested));
    ar.Pod<uint32_t>(0x33333333);
  }
  InputArchive in(&stream);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x11111111u);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x22222222u);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x33333333u);
}

TEST(Archive, VecLengthExactlyAtStreamEndReads) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Vec(std::vector<uint32_t>{1, 2, 3});
  }
  InputArchive ar(&stream);
  EXPECT_EQ(ar.Vec<uint32_t>(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(CorpusSerialize, RoundTripPreservesEverything) {
  Rng rng(171);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 50;
  Corpus original = GenerateCorpus(spec, &rng);
  std::stringstream stream;
  original.Save(&stream);
  Corpus loaded = Corpus::Load(&stream);
  ASSERT_EQ(loaded.num_objects(), original.num_objects());
  EXPECT_EQ(loaded.total_weight(), original.total_weight());
  EXPECT_EQ(loaded.vocab_size(), original.vocab_size());
  for (ObjectId e = 0; e < original.num_objects(); ++e) {
    EXPECT_EQ(loaded.doc(e), original.doc(e));
  }
}

}  // namespace
}  // namespace kwsc
