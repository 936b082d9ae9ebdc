// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the stream side of the flat containers: ReadFlatContainer, the
// one reader every persisted stream goes through (the corpus, the dynamic
// checkpoint's container sequence), and the corpus container built on it.
// The containers' layout checks are in tests/flat_layout_test.cc, and the
// corpus golden's corruption sweep in tests/golden_format_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_arena.h"
#include "common/random.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr uint32_t kTestTag = FlatFamilyTag('T', 'E', 'S', 'T');

struct TestRoot {
  uint64_t value;
  SlabRef items;
};

/// One container holding `items` and `value`.
std::string TestContainer(const std::vector<uint64_t>& items,
                          uint64_t value) {
  FlatArenaWriter writer(kTestTag);
  TestRoot root{};
  root.value = value;
  root.items = writer.Slab<uint64_t>(items);
  writer.Root(root);
  return writer.Finish();
}

/// Reads one container from `in` and returns its items and value.
std::pair<std::vector<uint64_t>, uint64_t> ReadTestContainer(
    std::istream* in) {
  const std::shared_ptr<const MmapFile> file = ReadFlatContainer(in);
  const FlatArenaReader reader(*file, 0, kTestTag);
  const TestRoot& root = reader.Root<TestRoot>();
  const std::span<const uint64_t> items = reader.Slab<uint64_t>(root.items);
  return {{items.begin(), items.end()}, root.value};
}

/// A stream buffer that cannot seek, like a pipe: tellg() reports -1.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(FlatStream, ReadsConsecutiveContainersAndStopsAtTheNext) {
  std::stringstream stream;
  stream << TestContainer({1, 2, 3}, 7) << TestContainer({}, 9);
  stream << "tail";
  const auto first = ReadTestContainer(&stream);
  EXPECT_EQ(first.first, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(first.second, 7u);
  const auto second = ReadTestContainer(&stream);
  EXPECT_TRUE(second.first.empty());
  EXPECT_EQ(second.second, 9u);
  std::string rest;
  stream >> rest;
  EXPECT_EQ(rest, "tail");
}

TEST(FlatStream, ContainerEndingExactlyAtStreamEndReads) {
  const std::string bytes = TestContainer({4, 5}, 1);
  std::istringstream stream(bytes);
  EXPECT_EQ(ReadTestContainer(&stream).first, (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(stream.peek(), std::char_traits<char>::eof());
}

TEST(FlatStream, NonSeekableStreamReads) {
  PipeBuf pipe(TestContainer({6, 7, 8}, 2));
  std::istream stream(&pipe);
  ASSERT_EQ(stream.tellg(), std::istream::pos_type(-1));
  EXPECT_EQ(ReadTestContainer(&stream).first,
            (std::vector<uint64_t>{6, 7, 8}));
}

TEST(FlatStreamDeath, WrongMagicAborts) {
  std::string bytes = TestContainer({1}, 1);
  bytes[3] = '1';  // "KWF1"
  std::istringstream stream(bytes);
  EXPECT_DEATH(ReadFlatContainer(&stream), "flat magic mismatch");
}

TEST(FlatStreamDeath, TruncatedHeaderAborts) {
  const std::string bytes = TestContainer({1}, 1);
  std::istringstream stream(bytes.substr(0, sizeof(FlatHeader) - 1));
  EXPECT_DEATH(ReadFlatContainer(&stream), "truncated flat container header");
}

TEST(FlatStreamDeath, TotalBytesBeyondStreamAborts) {
  // A corrupt header declaring far more bytes than the stream holds dies in
  // the remaining-bytes check, before allocating total_bytes.
  std::string bytes = TestContainer({1, 2}, 1);
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.total_bytes = uint64_t{1} << 36;
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::istringstream stream(bytes);
  EXPECT_DEATH(ReadFlatContainer(&stream), "exceeds the remaining stream");
}

TEST(FlatStreamDeath, TotalBytesOneQuantumBeyondStreamAborts) {
  // Off by one alignment quantum at the boundary: the container's last 64
  // bytes are missing.
  const std::string bytes = TestContainer({1, 2, 3}, 1);
  std::istringstream stream(bytes.substr(0, bytes.size() - kFlatAlignment));
  EXPECT_DEATH(ReadFlatContainer(&stream), "exceeds the remaining stream");
}

TEST(FlatStreamDeath, TotalBytesBeyondFileEndAborts) {
  // Through a std::filebuf the end is measured from the file: after many
  // containers read through the buffer, the last one, cut short, must
  // still die before its allocation.
  const std::string path = ::testing::TempDir() + "kwsc_flat_stream.bin";
  const std::string last = TestContainer({1, 2, 3, 4, 5, 6, 7, 8, 9}, 3);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (uint64_t i = 0; i < 500; ++i) out << TestContainer({i, i + 1}, i);
    out << last.substr(0, last.size() - kFlatAlignment);
  }
  const auto read_all = [&path] {
    std::ifstream in(path, std::ios::binary);
    for (uint64_t i = 0; i < 500; ++i) {
      KWSC_CHECK(ReadTestContainer(&in).first ==
                 (std::vector<uint64_t>{i, i + 1}));
    }
    ReadFlatContainer(&in);
  };
  EXPECT_DEATH(read_all(), "exceeds the remaining stream");
  std::remove(path.c_str());
}

TEST(FlatStreamDeath, TruncatedNonSeekableStreamAborts) {
  // A pipe cannot say where it ends, so the read itself comes up short.
  const std::string bytes = TestContainer({1, 2, 3}, 1);
  PipeBuf pipe(bytes.substr(0, bytes.size() - kFlatAlignment));
  std::istream stream(&pipe);
  EXPECT_DEATH(ReadFlatContainer(&stream), "truncated flat container");
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
  EXPECT_EQ(loaded.MemoryBytes(), original.MemoryBytes());
  for (ObjectId e = 0; e < original.num_objects(); ++e) {
    EXPECT_EQ(loaded.doc(e), original.doc(e));
  }
  // The file is the two pool arrays plus framing: 8 B per document and 4 B
  // per keyword, one more offset, and at most four alignment quanta.
  const size_t pools = (original.num_objects() + 1) * sizeof(uint64_t) +
                       original.total_weight() * sizeof(KeywordId);
  EXPECT_GE(stream.str().size(), pools);
  EXPECT_LE(stream.str().size(), pools + 4 * kFlatAlignment);
}

TEST(CorpusSerialize, EmptyCorpusRoundTrips) {
  std::stringstream stream;
  Corpus().Save(&stream);
  const Corpus loaded = Corpus::Load(&stream);
  EXPECT_EQ(loaded.num_objects(), 0u);
  EXPECT_EQ(loaded.total_weight(), 0u);
}

TEST(CorpusSerializeDeath, ObjectCountBeyondObjectIdRangeAborts) {
  // A corpus root claiming more objects than an ObjectId can name is
  // refused before its offsets slab is read.
  std::stringstream saved;
  Corpus({Document{1, 2}}).Save(&saved);
  std::string bytes = saved.str();
  FlatHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (const uint64_t count : {uint64_t{kInvalidObjectId}, uint64_t{1} << 61}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + header.root_offset, &count, sizeof(count));
    std::istringstream stream(corrupt);
    EXPECT_DEATH(Corpus::Load(&stream),
                 "object count [0-9]+ exceeds the ObjectId range");
  }
}

}  // namespace
}  // namespace kwsc
