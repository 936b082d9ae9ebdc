// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Corpus: the keyword side of a dataset.
//
// Holds every object's document and precomputes the quantities the paper's
// definitions use everywhere: the input size N = sum of document sizes
// (Eq. (2)) and the vocabulary size W. Geometry (points, rectangles) lives
// next to the Corpus in each index, keyed by ObjectId, so the same corpus can
// back every problem variant.
//
// Storage is one CSR pool: object e's sorted, distinct keywords are
// keywords_[offsets_[e], offsets_[e + 1]). Each object also carries a 64-bit
// keyword signature, the OR of its keywords' SignatureBit()s, so the
// membership test the query algorithms run on every pivot and list object
// (footnote 9) usually settles with one load and no search.
//
// On disk the corpus is one flat container (common/flat_arena.h) holding the
// two pool arrays as slabs. The signatures and W are not stored: the load
// recomputes them in the pass that checks the documents.

#ifndef KWSC_TEXT_CORPUS_H_
#define KWSC_TEXT_CORPUS_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "common/abi.h"
#include "common/flat_arena.h"
#include "common/macros.h"
#include "text/document.h"

namespace kwsc {

/// A set of query keywords; callers must supply exactly k distinct keywords
/// to an index built for k.
using KeywordQuery = std::vector<KeywordId>;

/// Immutable collection of documents, indexed by ObjectId.
class Corpus {
 public:
  Corpus() = default;

  /// Copies `docs` into the pool. Every document must be non-empty.
  explicit Corpus(const std::vector<Document>& docs);

  /// The corpus whose object i is the document `doc_of(ids[i])`. The
  /// callable returns a view (a KeywordSpan or a std::span) of a sorted,
  /// distinct, non-empty keyword set: another corpus's document or a
  /// Document's keywords. The spans are appended; no Document is built.
  template <typename DocOf>
  static Corpus Gather(std::span<const ObjectId> ids, DocOf doc_of) {
    uint64_t weight = 0;
    for (ObjectId id : ids) weight += doc_of(id).size();
    Corpus out;
    out.Reserve(ids.size(), weight);
    for (ObjectId id : ids) out.Append(doc_of(id));
    return out;
  }

  size_t num_objects() const { return signatures_.size(); }

  /// The paper's input size N = sum over objects of |e.Doc| (Eq. (2)).
  uint64_t total_weight() const { return keywords_.size(); }

  /// Number of distinct keywords W (max keyword id + 1).
  uint32_t vocab_size() const { return vocab_size_; }

  DocumentView doc(ObjectId e) const {
    KWSC_DCHECK(e < num_objects());
    const KeywordId* base = keywords_.data();
    return DocumentView({base + offsets_[e], base + offsets_[e + 1]});
  }

  /// The signature bit of keyword `w`: its id modulo 64. Ids are handed out
  /// roughly by frequency (Zipf ranks in the generators, first sight in a
  /// Vocabulary), so the 64 commonest keywords get a bit each, and a rarer
  /// one shares a bit with ids 64 apart. On the Zipf workloads this passes
  /// fewer false candidates than a multiplicative hash of the id.
  static uint64_t SignatureBit(KeywordId w) { return uint64_t{1} << (w & 63); }

  /// The signature test alone: false proves e.Doc misses one of `keywords`;
  /// true may be a collision. ContainsAll runs it before the exact search.
  bool MayContainAll(ObjectId e, std::span<const KeywordId> keywords) const {
    KWSC_DCHECK(e < num_objects());
    uint64_t want = 0;
    for (KeywordId w : keywords) want |= SignatureBit(w);
    return (signatures_[e] & want) == want;
  }

  /// Footnote 9's O(1) membership test: the signature, then a binary search
  /// of the O(1)-size document.
  bool Contains(ObjectId e, KeywordId w) const {
    return ContainsAll(e, std::span<const KeywordId>(&w, 1));
  }

  /// True iff e.Doc contains all of `keywords` — the membership test the
  /// query algorithms run when visiting pivot objects and materialized lists.
  bool ContainsAll(ObjectId e, std::span<const KeywordId> keywords) const {
    if (!MayContainAll(e, keywords)) return false;
    const DocumentView d = doc(e);
    for (KeywordId w : keywords) {
      if (!d.Contains(w)) return false;
    }
    return true;
  }

  size_t MemoryBytes() const;

  /// The corpus container's family tag; the 2 names its generation.
  static constexpr uint32_t kFlatFamilyTag = FlatFamilyTag('K', 'W', 'C', '2');

  /// The container's root: object e's keywords are
  /// keywords[offsets[e], offsets[e + 1]).
  struct FlatRoot {
    uint64_t num_objects;
    uint64_t total_weight;
    SlabRef offsets;   // uint64_t, num_objects + 1 entries.
    SlabRef keywords;  // KeywordId, total_weight entries.
  };

  /// Writes the corpus as one flat container; Load reads it back.
  void Save(std::ostream* out) const;

  /// Reads one corpus container from `in` and checks it (FromFlat); aborts
  /// on any failure.
  static Corpus Load(std::istream* in);

  /// The corpus in the container `file` holds, when it passes every check:
  /// the header and slab bounds, offsets that start at 0, strictly increase
  /// (no empty document) and end at the keyword count, strictly increasing
  /// keywords within each document, no keyword id 2^32 - 1 (W must fit a
  /// KeywordId), and fewer objects than kInvalidObjectId. The first failure
  /// goes to `sink` and yields nullopt.
  /// The same pass fills the pool and the signatures.
  static std::optional<Corpus> FromFlat(const MmapFile& file,
                                        const FlatErrorSink& sink);

 private:
  /// Makes room for `objects` more documents holding `keywords` in total.
  /// Sizing the pool exactly keeps MemoryBytes() equal however it was built.
  void Reserve(size_t objects, uint64_t keywords);

  /// Appends a sorted, distinct, non-empty document as object num_objects().
  void Append(std::span<const KeywordId> keywords);

  std::vector<uint64_t> offsets_ = {0};  // num_objects() + 1 entries.
  std::vector<KeywordId> keywords_;      // Every document, in object order.
  std::vector<uint64_t> signatures_;     // One per object.
  uint32_t vocab_size_ = 0;
};

KWSC_ABI_STRUCT_AS(CorpusFlatRoot, Corpus::FlatRoot);

}  // namespace kwsc

#endif  // KWSC_TEXT_CORPUS_H_
