// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Minimal binary stream archives.
//
// Indexes persist as v2 flat containers (common/flat_arena.h). The two
// streams that are not indexes use these archives: the corpus ("KWCP",
// text/corpus.h) and the batch-dynamic checkpoint ("KWDY",
// core/dynamic_index.h). The format is little-endian PODs with explicit
// sizes, a magic tag and a version per top-level object; readers abort on
// malformed input via KWSC_CHECK (the archives are trusted local files, not
// a network surface).

#ifndef KWSC_COMMON_SERIALIZE_H_
#define KWSC_COMMON_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/macros.h"

namespace kwsc {

// Pod/Vec write host bytes straight into the stream; the format's stated
// little-endian layout is only true because the host is. Fail the build on
// big-endian targets instead of writing archives other hosts cannot read.
static_assert(std::endian::native == std::endian::little,
              "stream archives are little-endian on disk; this host would need "
              "byte-swapping Pod/Vec shims");

/// Buffered binary writer. Per-value ostream::write calls for Pod dominate
/// save time on directory-heavy indexes (one virtual-dispatching write per
/// scalar), so values coalesce into an internal buffer flushed when it
/// fills, in ok(), in Flush(), and in the destructor. The byte stream is
/// identical to the unbuffered writer's (serialize_test asserts this).
///
/// Interleaving hazard: anything that writes to the same raw stream while an
/// OutputArchive is live (e.g. a nested save that builds its own archive)
/// must be preceded by Flush(), or the buffered bytes land after the nested
/// ones.
class OutputArchive {
 public:
  explicit OutputArchive(std::ostream* out) : out_(out) {
    KWSC_CHECK(out != nullptr);
    buffer_.reserve(kFlushThreshold);
  }

  ~OutputArchive() { Flush(); }

  OutputArchive(const OutputArchive&) = delete;
  OutputArchive& operator=(const OutputArchive&) = delete;

  /// Writes a 4-byte magic tag plus a version number.
  void Magic(std::string_view tag, uint32_t version) {
    KWSC_CHECK(tag.size() == 4);
    Append(tag.data(), 4);
    Pod(version);
  }

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  template <typename T>
  void Vec(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(v.size());
    if (!v.empty()) {
      Append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    }
  }

  template <typename T>
  void Vec(const std::vector<T>& v) {
    Vec(std::span<const T>(v));
  }

  /// Drains the coalescing buffer to the stream. Required before any write
  /// to the underlying stream that bypasses this archive.
  void Flush() {
    if (!buffer_.empty()) {
      out_->write(buffer_.data(),
                  static_cast<std::streamsize>(buffer_.size()));
      buffer_.clear();
    }
  }

  bool ok() {
    Flush();
    return out_->good();
  }

 private:
  // Large enough that bulk Vec payloads rarely split, small enough to stay
  // cache-resident while Pod-heavy directory saves fill it.
  static constexpr size_t kFlushThreshold = size_t{1} << 16;

  void Append(const char* data, size_t size) {
    if (buffer_.size() + size > kFlushThreshold) Flush();
    if (size > kFlushThreshold) {
      out_->write(data, static_cast<std::streamsize>(size));
      return;
    }
    buffer_.append(data, size);
  }

  std::ostream* out_;
  std::string buffer_;
};

class InputArchive {
 public:
  explicit InputArchive(std::istream* in) : in_(in), end_(StreamEnd(in)) {}

  /// Reads and validates a magic tag; returns the stored version.
  uint32_t Magic(std::string_view tag) {
    KWSC_CHECK(tag.size() == 4);
    char buf[4];
    in_->read(buf, 4);
    KWSC_CHECK_MSG(in_->good() && std::string_view(buf, 4) == tag,
                   "archive magic mismatch (want %.4s)", tag.data());
    return Pod<uint32_t>();
  }

  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    in_->read(reinterpret_cast<char*>(&value), sizeof(T));
    KWSC_CHECK_MSG(in_->good(), "truncated archive");
    return value;
  }

  /// Reads a length-prefixed vector of T into `Out`, a std::vector<T> by
  /// default. Any `Out` constructible from an element count with a
  /// writable data() works, so a payload with a home of its own (a flat
  /// container's aligned buffer, AlignedBytes) is read once, in place.
  template <typename T, typename Out = std::vector<T>>
  Out Vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t size = Pod<uint64_t>();
    // Guard against absurd sizes from corrupt input before allocating.
    KWSC_CHECK_MSG(size < (uint64_t{1} << 40), "implausible vector size");
    // A corrupt (or truncated) archive can declare a length far beyond what
    // the stream holds; clamp against the actual remaining bytes so the
    // failure is this check, not a giant allocation followed by a short
    // read. The buffered bytes settle most vectors without asking the
    // stream where it ends. Division keeps size * sizeof(T) from
    // overflowing first.
    const bool fits = size <= BufferedBytes() / sizeof(T) ||
                      size <= RemainingBytes() / sizeof(T);
    KWSC_CHECK_MSG(fits, "vector length exceeds remaining archive bytes");
    Out v(size);
    if (size > 0) {
      in_->read(reinterpret_cast<char*>(v.data()),
                static_cast<std::streamsize>(size * sizeof(T)));
      KWSC_CHECK_MSG(in_->good(), "truncated archive");
    }
    return v;
  }

  bool ok() const { return in_->good(); }

  /// Bytes between the read position and end-of-stream, or UINT64_MAX when
  /// the stream is not seekable (a pipe falls back to the plausibility guard
  /// plus the post-read truncation check). Costs a position query, never a
  /// seek: the end is measured once, when the archive is constructed.
  uint64_t RemainingBytes() const {
    if (end_ == std::istream::pos_type(-1)) return UINT64_MAX;
    const std::istream::pos_type pos = in_->tellg();
    if (pos == std::istream::pos_type(-1) || end_ < pos) return UINT64_MAX;
    return static_cast<uint64_t>(end_ - pos);
  }

 private:
  /// End-of-stream position, with the read position restored; -1 when the
  /// stream is not seekable. Every seek makes a std::filebuf drop its read
  /// buffer, which is why this runs once per archive and not per vector.
  static std::istream::pos_type StreamEnd(std::istream* in) {
    KWSC_CHECK(in != nullptr);
    const std::istream::pos_type pos = in->tellg();
    if (pos == std::istream::pos_type(-1)) return pos;
    in->seekg(0, std::ios::end);
    const std::istream::pos_type end = in->tellg();
    in->seekg(pos);
    return end;
  }

  /// Bytes the stream buffer holds past the read position: a lower bound
  /// on RemainingBytes() that needs no call into the stream's device.
  uint64_t BufferedBytes() const {
    const std::streamsize avail = in_->rdbuf()->in_avail();
    return avail > 0 ? static_cast<uint64_t>(avail) : 0;
  }

  std::istream* in_;
  std::istream::pos_type end_;
};

}  // namespace kwsc

#endif  // KWSC_COMMON_SERIALIZE_H_
