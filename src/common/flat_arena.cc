// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "common/flat_arena.h"

#include <cstdio>
#include <istream>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define KWSC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define KWSC_HAVE_MMAP 0
#include <fstream>
#endif

namespace kwsc {

namespace {

/// 64-byte-aligned heap buffer for the no-mmap paths, so file-relative slab
/// alignment implies absolute alignment exactly as it does under mmap
/// (page-aligned bases).
std::byte* AlignedAlloc(size_t size) {
  if (size == 0) return nullptr;
  return static_cast<std::byte*>(
      ::operator new(size, std::align_val_t(kFlatAlignment)));
}

void AlignedFree(std::byte* p) {
  if (p != nullptr) ::operator delete(p, std::align_val_t(kFlatAlignment));
}

/// Bytes between `in`'s read position and its end, with the position
/// restored; UINT64_MAX when the stream cannot seek.
uint64_t RemainingStreamBytes(std::istream* in) {
  const std::istream::pos_type pos = in->tellg();
  if (pos == std::istream::pos_type(-1)) return UINT64_MAX;
  in->seekg(0, std::ios::end);
  const std::istream::pos_type end = in->tellg();
  in->seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return UINT64_MAX;
  return static_cast<uint64_t>(end - pos);
}

// MmapFile is immutable after creation, so the factory functions need a
// brief mutable window; this subclass just re-opens the constructor.
struct MmapFileBuilder : MmapFile {};

/// Whether this buffer should be released with munmap (true) or the aligned
/// delete (false). Tracked per address in the destructor via the flag baked
/// into MmapFile::used_mmap_ — but the heap fallback of Open() also sets
/// used_mmap_ = false, so the flag doubles as the deallocation discriminant.
}  // namespace

AlignedBytes::AlignedBytes(size_t size)
    : bytes_(AlignedAlloc(size)), size_(size) {}

void AlignedBytes::Free::operator()(std::byte* p) const { AlignedFree(p); }

FlatErrorSink AbortingFlatErrorSink() {
  return [](const std::string& message) {
    KWSC_CHECK_MSG(false, "flat layout invalid: %s", message.c_str());
  };
}

MmapFile::~MmapFile() {
#if KWSC_HAVE_MMAP
  if (used_mmap_) {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::byte*>(data_), size_);
    }
    return;
  }
#endif
  AlignedFree(const_cast<std::byte*>(data_));
}

std::shared_ptr<const MmapFile> MmapFile::Open(const std::string& path) {
#if KWSC_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    std::fprintf(stderr, "MmapFile: cannot open %s\n", path.c_str());
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    std::fprintf(stderr, "MmapFile: cannot stat %s\n", path.c_str());
    ::close(fd);
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  auto file = std::make_shared<MmapFileBuilder>();
  file->size_ = size;
  if (size == 0) {
    ::close(fd);
    return file;
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mapped != MAP_FAILED) {
    file->data_ = static_cast<const std::byte*>(mapped);
    file->used_mmap_ = true;
    ::close(fd);
    return file;
  }
  // Graceful fallback: read the file into an aligned heap buffer. Same
  // bytes and alignment guarantees, just not zero-copy.
  AlignedBytes buf(size);
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::read(fd, buf.data() + off, size - off);
    if (n <= 0) {
      std::fprintf(stderr, "MmapFile: short read on %s\n", path.c_str());
      ::close(fd);
      return nullptr;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return Adopt(std::move(buf));
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "MmapFile: cannot open %s\n", path.c_str());
    return nullptr;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    std::fprintf(stderr, "MmapFile: read failed on %s\n", path.c_str());
    return nullptr;
  }
  return FromBytes(std::move(bytes));
#endif
}

std::shared_ptr<const MmapFile> MmapFile::FromBytes(std::string bytes) {
  AlignedBytes buf(bytes.size());
  if (!bytes.empty()) std::memcpy(buf.data(), bytes.data(), bytes.size());
  return Adopt(std::move(buf));
}

std::shared_ptr<const MmapFile> MmapFile::Adopt(AlignedBytes bytes) {
  auto file = std::make_shared<MmapFileBuilder>();
  file->size_ = bytes.size_;
  file->used_mmap_ = false;
  file->data_ = bytes.bytes_.release();
  return file;
}

const std::string& FlatArenaWriter::Finish() {
  if (finished_) return buf_;
  KWSC_CHECK_MSG(root_size_ != 0, "flat container finished without a root");
  Align();
  FlatHeader header;
  std::memset(static_cast<void*>(&header), 0, sizeof(header));
  std::memcpy(header.magic, &kFlatMagic, sizeof(header.magic));
  header.family_tag = family_tag_;
  header.total_bytes = buf_.size();
  header.root_offset = root_offset_;
  header.root_size = root_size_;
  std::memcpy(buf_.data(), &header, sizeof(header));
  finished_ = true;
  return buf_;
}

void FlatArenaWriter::WriteTo(std::ostream* out) {
  const std::string& bytes = Finish();
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::shared_ptr<const MmapFile> FlatArenaWriter::ToFile() {
  Finish();
  return MmapFile::FromBytes(std::move(buf_));
}

void WriteFlatContainer(std::span<const std::byte> container,
                        uint32_t family_tag, std::ostream* out) {
  KWSC_CHECK(container.size() >= sizeof(FlatHeader));
  FlatHeader header;
  std::memcpy(&header, container.data(), sizeof(header));
  header.family_tag = family_tag;
  out->write(reinterpret_cast<const char*>(&header), sizeof(header));
  out->write(reinterpret_cast<const char*>(container.data()) + sizeof(header),
             static_cast<std::streamsize>(container.size() - sizeof(header)));
}

std::shared_ptr<const MmapFile> ReadFlatContainer(std::istream* in) {
  KWSC_CHECK(in != nullptr);
  FlatHeader header;
  in->read(reinterpret_cast<char*>(&header), sizeof(header));
  KWSC_CHECK_MSG(in->good(), "truncated flat container header");
  KWSC_CHECK_MSG(
      std::memcmp(header.magic, &kFlatMagic, sizeof(header.magic)) == 0,
      "flat magic mismatch (want KWF2)");
  KWSC_CHECK_MSG(header.total_bytes >= sizeof(header) &&
                     header.total_bytes % kFlatAlignment == 0,
                 "flat container size %llu implausible",
                 static_cast<unsigned long long>(header.total_bytes));
  // A corrupt size must fail here, not as a huge allocation followed by a
  // short read. A stream that cannot seek is held to a plausibility bound
  // instead, and to the truncation check after the read.
  const uint64_t rest = header.total_bytes - sizeof(header);
  KWSC_CHECK_MSG(
      rest < (uint64_t{1} << 40) && rest <= RemainingStreamBytes(in),
      "flat container of %llu bytes exceeds the remaining stream",
      static_cast<unsigned long long>(header.total_bytes));
  AlignedBytes bytes(static_cast<size_t>(header.total_bytes));
  std::memcpy(bytes.data(), &header, sizeof(header));
  in->read(reinterpret_cast<char*>(bytes.data()) + sizeof(header),
           static_cast<std::streamsize>(rest));
  KWSC_CHECK_MSG(in->good(), "truncated flat container");
  return MmapFile::Adopt(std::move(bytes));
}

bool FlatArenaReader::Validate(const MmapFile& file, uint64_t offset,
                               uint32_t expected_tag,
                               const FlatErrorSink& sink) {
  auto fail = [&sink](std::string message) {
    sink(std::move(message));
    return false;
  };
  if (offset % kFlatAlignment != 0) {
    return fail("container offset " + std::to_string(offset) +
                " not 64-byte aligned");
  }
  if (offset > file.size() || file.size() - offset < sizeof(FlatHeader)) {
    return fail("file too small for flat header (size " +
                std::to_string(file.size()) + ", offset " +
                std::to_string(offset) + ")");
  }
  FlatHeader header;
  std::memcpy(&header, file.data() + offset, sizeof(header));
  if (std::memcmp(header.magic, &kFlatMagic, sizeof(header.magic)) != 0) {
    return fail("flat magic mismatch (want KWF2)");
  }
  if (header.family_tag != expected_tag) {
    const auto spell = [](uint32_t tag) {
      std::string s(4, '?');
      for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        s[static_cast<size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
      }
      return s;
    };
    return fail("flat family tag mismatch (file " + spell(header.family_tag) +
                ", expected " + spell(expected_tag) + ")");
  }
  if (header.total_bytes < sizeof(FlatHeader) ||
      header.total_bytes % kFlatAlignment != 0 ||
      header.total_bytes > file.size() - offset) {
    return fail("flat container size " + std::to_string(header.total_bytes) +
                " implausible or exceeds file (file " +
                std::to_string(file.size()) + ", offset " +
                std::to_string(offset) + ")");
  }
  if (header.root_size == 0 || header.root_offset % kFlatAlignment != 0 ||
      header.root_offset < sizeof(FlatHeader) ||
      header.root_offset >= header.total_bytes ||
      header.root_size > header.total_bytes - header.root_offset) {
    return fail("flat root slab out of bounds (offset " +
                std::to_string(header.root_offset) + ", size " +
                std::to_string(header.root_size) + ")");
  }
  return true;
}

FlatArenaReader::FlatArenaReader(const MmapFile& file, uint64_t offset,
                                 uint32_t expected_tag) {
  KWSC_CHECK(Validate(file, offset, expected_tag, AbortingFlatErrorSink()));
  base_ = file.data() + offset;
  FlatHeader header;
  std::memcpy(&header, base_, sizeof(header));
  total_bytes_ = header.total_bytes;
  family_tag_ = header.family_tag;
  root_offset_ = header.root_offset;
  root_size_ = header.root_size;
}

}  // namespace kwsc
