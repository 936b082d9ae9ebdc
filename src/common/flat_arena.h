// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Flat (v2) on-disk layout primitives: a 64-byte header, 64-byte-aligned
// typed slabs addressed by byte offsets, and an mmap-backed read path.
//
// Every index persists in this one form. A stream format would deserialize
// every field and pointer-rebuild the index, so cold-start would cost a full
// O(index) pass plus an RSS copy. The v2 "flat" format instead lays the bulk
// payload — posting lists, pivot pools, tuple registries, rank tables — out
// as contiguous trivially-copyable slabs; loading is an mmap plus header
// validation, and queries run directly over the mapped bytes through span
// views. Offsets are relative to the container start, so containers
// concatenate: a wrapper family appends its engine's container right after
// its own (both are padded to the 64-byte alignment quantum).
//
// Container layout:
//
//   [FlatHeader: 64 bytes]  magic "KWF2", family tag, total bytes, root ref
//   [slab]* each 64-byte aligned, in writer call order
//   [root slab]             one POD with SlabRefs naming every other slab
//   (padding to a 64-byte boundary)
//
// Ownership: loaded indexes keep a shared_ptr<const MmapFile> alive, so the
// spans they hand out stay valid for the index lifetime. On platforms
// without mmap (or when mapping fails) MmapFile falls back to a 64-byte-
// aligned heap read — same bytes, same alignment guarantees, no zero-copy.

#ifndef KWSC_COMMON_FLAT_ARENA_H_
#define KWSC_COMMON_FLAT_ARENA_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/abi.h"
#include "common/macros.h"

namespace kwsc {

/// Every slab (and every container) starts on a 64-byte boundary: one cache
/// line, and a multiple of every alignof the slabs store.
inline constexpr size_t kFlatAlignment = 64;

/// Packs a four-character family tag ("KWO2", ...) into the header word.
constexpr uint32_t FlatFamilyTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// The container magic every header opens with, packed like a family tag
/// (its bytes on disk spell "KWF2").
inline constexpr uint32_t kFlatMagic = FlatFamilyTag('K', 'W', 'F', '2');

/// A typed slab reference: byte offset from the container start plus element
/// count. The element type is implied by the field holding the ref.
struct SlabRef {
  uint64_t offset = 0;
  uint64_t count = 0;
};

/// The fixed-size container header. `root_offset/root_size` locate the
/// family's root POD, which in turn names every other slab via SlabRefs.
struct FlatHeader {
  char magic[4];        // "KWF2"
  uint32_t family_tag;  // FlatFamilyTag(...), per index family
  uint64_t total_bytes; // container size including this header and padding
  uint64_t root_offset;
  uint64_t root_size;
  uint64_t reserved[4];
};
static_assert(sizeof(FlatHeader) == kFlatAlignment,
              "FlatHeader must fill exactly one alignment quantum");
static_assert(std::is_trivially_copyable_v<FlatHeader>);
KWSC_ABI_STRUCT(SlabRef);
KWSC_ABI_STRUCT(FlatHeader);

// The KWF2 container is host-endian on disk and defined as little-endian
// (common/abi.h asserts the host); a mapped FlatHeader is reinterpreted in
// place, so there is no byte-swapping seam to add one later.
static_assert(std::endian::native == std::endian::little,
              "FlatHeader and every slab are mapped back without swapping");

/// Receives human-readable structural complaints from flat-layout
/// validation. Load paths pass an aborting sink (KWSC_CHECK semantics); the
/// auditor passes a sink that records AuditCheck::kFlatLayout violations.
using FlatErrorSink = std::function<void(const std::string&)>;

/// An aborting sink for load paths: any validation failure is fatal.
FlatErrorSink AbortingFlatErrorSink();

/// A writable 64-byte-aligned heap buffer, filled in place and then frozen
/// into an MmapFile (MmapFile::Adopt) without a copy. A container read from
/// a stream lands straight in one (ReadFlatContainer).
class AlignedBytes {
 public:
  explicit AlignedBytes(size_t size);

  std::byte* data() { return bytes_.get(); }
  size_t size() const { return size_; }

 private:
  friend class MmapFile;
  struct Free {
    void operator()(std::byte* p) const;
  };
  std::unique_ptr<std::byte, Free> bytes_;
  size_t size_ = 0;
};

/// A read-only byte buffer backed by mmap when available, or by a 64-byte-
/// aligned heap read otherwise. Immutable after creation; loaded indexes
/// share ownership so mapped spans outlive any one handle.
class MmapFile {
 public:
  /// Maps (or reads) `path`. Returns nullptr with a message on stderr when
  /// the file cannot be opened or read.
  static std::shared_ptr<const MmapFile> Open(const std::string& path);

  /// Wraps in-memory bytes (tests, the auditor's round trip): copies into a
  /// 64-byte-aligned heap buffer so alignment checks behave exactly as on
  /// disk.
  static std::shared_ptr<const MmapFile> FromBytes(std::string bytes);

  /// Takes over an already filled aligned buffer; no copy.
  static std::shared_ptr<const MmapFile> Adopt(AlignedBytes bytes);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

  /// True when the bytes are an actual mmap (zero-copy); false on the heap
  /// fallback. Feeds the load-path gauges.
  bool used_mmap() const { return used_mmap_; }

 protected:
  // Only the factory functions create instances (via a builder subclass in
  // the implementation file).
  MmapFile() = default;

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  bool used_mmap_ = false;
};

/// Serializes one flat container: append slabs, set the root, stream out.
/// Deterministic: byte content depends only on the call sequence (padding is
/// zeroed), so a container re-saved from a loaded index is byte-identical —
/// the discipline the auditor's serialization check enforces.
class FlatArenaWriter {
 public:
  explicit FlatArenaWriter(uint32_t family_tag) : family_tag_(family_tag) {
    buf_.assign(kFlatAlignment, '\0');  // header placeholder
  }

  /// Appends a 64-byte-aligned slab of trivially-copyable elements and
  /// returns its reference. An empty span yields a count-0 ref.
  template <typename T>
  SlabRef Slab(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "flat slabs hold trivially-copyable elements only");
    KWSC_CHECK(!finished_);
    Align();
    SlabRef ref{buf_.size(), items.size()};
    if (!items.empty()) {
      buf_.append(reinterpret_cast<const char*>(items.data()),
                  items.size() * sizeof(T));
    }
    return ref;
  }

  /// Writes the family's root POD (a struct of SlabRefs plus scalars) and
  /// records it in the header. Call exactly once, after every Slab call.
  template <typename T>
  void Root(const T& pod) {
    static_assert(std::is_trivially_copyable_v<T>);
    KWSC_CHECK(!finished_ && root_size_ == 0);
    const SlabRef ref = Slab(std::span<const T>(&pod, 1));
    root_offset_ = ref.offset;
    root_size_ = sizeof(T);
  }

  /// Finalizes (pads to the alignment quantum, fills the header) and
  /// returns the container bytes. Idempotent after the first call.
  const std::string& Finish();

  /// Container size after finalization (calls Finish()).
  size_t total_bytes() { return Finish().size(); }

  /// Finalizes and streams the container to `out`.
  void WriteTo(std::ostream* out);

  /// Finalizes into an immutable 64-byte-aligned heap buffer: the container
  /// a freshly built index attaches.
  std::shared_ptr<const MmapFile> ToFile();

 private:
  void Align() {
    const size_t rem = buf_.size() % kFlatAlignment;
    if (rem != 0) buf_.append(kFlatAlignment - rem, '\0');
  }

  std::string buf_;
  uint32_t family_tag_;
  uint64_t root_offset_ = 0;
  uint64_t root_size_ = 0;
  bool finished_ = false;
};

/// Validates and reads one flat container inside an MmapFile. Construction
/// aborts on a malformed header (load path); use Validate() for the
/// non-aborting variant (auditor). Slab accessors bound- and alignment-check
/// every reference before handing out a span over the mapped bytes.
class FlatArenaReader {
 public:
  /// Header-level validation: alignment, magic, family tag, size bounds,
  /// root slab sanity. Reports every problem through `sink`; returns true
  /// when the container header is well-formed.
  static bool Validate(const MmapFile& file, uint64_t offset,
                       uint32_t expected_tag, const FlatErrorSink& sink);

  /// Aborts (KWSC_CHECK semantics) unless Validate() would succeed.
  FlatArenaReader(const MmapFile& file, uint64_t offset,
                  uint32_t expected_tag);

  /// True when `ref`, read as a slab of T, lies inside the container with
  /// correct alignment. Count-0 refs are always valid.
  template <typename T>
  bool SlabOk(SlabRef ref) const {
    if (ref.count == 0) return true;
    if (ref.offset % kFlatAlignment != 0) return false;
    if (ref.offset < kFlatAlignment || ref.offset >= total_bytes_)
      return false;
    const uint64_t max_count = (total_bytes_ - ref.offset) / sizeof(T);
    return ref.count <= max_count;
  }

  /// The slab as a typed span over the mapped bytes. Aborts when !SlabOk.
  template <typename T>
  std::span<const T> Slab(SlabRef ref) const {
    static_assert(std::is_trivially_copyable_v<T>);
    KWSC_CHECK_MSG(SlabOk<T>(ref),
                   "flat slab out of bounds (offset %llu count %llu elem %zu "
                   "container %llu)",
                   static_cast<unsigned long long>(ref.offset),
                   static_cast<unsigned long long>(ref.count), sizeof(T),
                   static_cast<unsigned long long>(total_bytes_));
    if (ref.count == 0) return {};
    return std::span<const T>(
        reinterpret_cast<const T*>(base_ + ref.offset),
        static_cast<size_t>(ref.count));
  }

  /// True when the stored root slab is exactly one T (non-aborting check
  /// for validation passes).
  template <typename T>
  bool RootOk() const {
    return root_size_ == sizeof(T);
  }

  /// The family root POD. Aborts when the stored root size does not match
  /// sizeof(T) — catches loading a container with the wrong template
  /// instantiation (dimension or scalar mismatch).
  template <typename T>
  const T& Root() const {
    static_assert(std::is_trivially_copyable_v<T>);
    KWSC_CHECK_MSG(root_size_ == sizeof(T),
                   "flat root size mismatch (stored %llu, expected %zu)",
                   static_cast<unsigned long long>(root_size_), sizeof(T));
    return *reinterpret_cast<const T*>(base_ + root_offset_);
  }

  uint64_t total_bytes() const { return total_bytes_; }
  uint32_t family_tag() const { return family_tag_; }

 private:
  const std::byte* base_ = nullptr;
  uint64_t total_bytes_ = 0;
  uint32_t family_tag_ = 0;
  uint64_t root_offset_ = 0;
  uint64_t root_size_ = 0;
};

/// Streams `container`, one whole flat container, with its header's family
/// tag set to `family_tag`; every other byte is written verbatim. A wrapper
/// family saves its engine's container this way under its own tag.
void WriteFlatContainer(std::span<const std::byte> container,
                        uint32_t family_tag, std::ostream* out);

/// Reads the one flat container at `in`'s read position into a 64-byte-
/// aligned buffer and leaves the stream at the byte after it, where the next
/// container of a stream of containers starts. Aborts on a wrong magic, on a
/// total_bytes the stream does not hold (measured from the stream's end, or,
/// on a stream that cannot seek, after the read), and on a short read, all
/// before the container is handed on. Only the header is checked here; the
/// caller validates the rest through FlatArenaReader, as for a mapped file.
std::shared_ptr<const MmapFile> ReadFlatContainer(std::istream* in);

/// A typed view of one slab in a container its holder keeps alive, read
/// like a const vector; view() hands the span to a writer.
template <typename T>
class SlabSpan {
 public:
  void Attach(std::span<const T> s) { view_ = s; }

  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T* data() const { return view_.data(); }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }
  std::span<const T> view() const { return view_; }

 private:
  std::span<const T> view_;
};

/// A SlabSpan that owns a vector in the pointer-built path and merely views
/// a mapped slab in the flat path, so query code is mode-agnostic. Moves
/// are safe (vector moves keep the heap buffer, so a view into the owned
/// buffer survives); copies re-point the view when it aliased the owned
/// buffer.
template <typename T>
class OwnedSpan : public SlabSpan<T> {
 public:
  OwnedSpan() = default;

  OwnedSpan(OwnedSpan&&) noexcept = default;
  OwnedSpan& operator=(OwnedSpan&&) noexcept = default;
  OwnedSpan(const OwnedSpan& other) { *this = other; }
  OwnedSpan& operator=(const OwnedSpan& other) {
    if (this == &other) return *this;
    owned_ = other.owned_;
    SlabSpan<T>::Attach(other.owns() ? std::span<const T>(owned_)
                                     : other.view());
    return *this;
  }

  /// Takes ownership of `v` (pointer-built path).
  void Assign(std::vector<T> v) {
    owned_ = std::move(v);
    SlabSpan<T>::Attach(owned_);
  }

  /// Views externally-owned bytes (flat path; the index keeps the backing
  /// MmapFile alive).
  void Attach(std::span<const T> s) {
    owned_.clear();
    owned_.shrink_to_fit();
    SlabSpan<T>::Attach(s);
  }

  bool owns() const { return !owned_.empty(); }

  /// Heap bytes charged to this container (0 when viewing mapped bytes —
  /// that is the point of the flat layout).
  size_t MemoryBytes() const { return owned_.capacity() * sizeof(T); }

 private:
  std::vector<T> owned_;
};

}  // namespace kwsc

#endif  // KWSC_COMMON_FLAT_ARENA_H_
