// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The keyword/document model of the paper (Section 1.1).
//
// Each object e carries a non-empty document e.Doc, formulated as a set of
// integer keywords. Documents are stored as sorted, deduplicated arrays of
// KeywordId, which makes membership O(log |Doc|) = O(1) for the constant-size
// documents the analysis assumes, and makes k-subset enumeration (needed by
// the tuple registry of Section 3.2) trivial.

#ifndef KWSC_TEXT_DOCUMENT_H_
#define KWSC_TEXT_DOCUMENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace kwsc {

/// Integer keyword, the paper's w in [1, W] (0-based here).
using KeywordId = uint32_t;

/// Index of an object within its dataset.
using ObjectId = uint32_t;

constexpr ObjectId kInvalidObjectId = static_cast<ObjectId>(-1);

/// A run of sorted, distinct keywords held elsewhere. It is a std::span,
/// and it also converts to a std::vector copy for callers that take one.
class KeywordSpan : public std::span<const KeywordId> {
 public:
  using std::span<const KeywordId>::span;

  operator std::vector<KeywordId>() const { return {begin(), end()}; }
};

/// One document of a Corpus: a view of its keywords inside the corpus pool,
/// valid while the corpus is. Converts to an owning Document.
class DocumentView {
 public:
  explicit DocumentView(std::span<const KeywordId> keywords)
      : keywords_(keywords.data(), keywords.size()) {}

  /// True iff `w` is in the set. Binary search.
  bool Contains(KeywordId w) const {
    return std::binary_search(begin(), end(), w);
  }

  size_t size() const { return keywords_.size(); }
  KeywordSpan keywords() const { return keywords_; }

  const KeywordId* begin() const { return keywords_.data(); }
  const KeywordId* end() const { return keywords_.data() + keywords_.size(); }

  friend bool operator==(const DocumentView& a, const DocumentView& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  KeywordSpan keywords_;
};

/// A sorted, deduplicated keyword set. Immutable after construction.
class Document {
 public:
  Document() = default;

  /// Copies a corpus document, which is already sorted and distinct.
  Document(const DocumentView& view) : keywords_(view.begin(), view.end()) {}

  /// Sorts and deduplicates `keywords`. The result must be non-empty for use
  /// as an object document (Eq. (2) counts its size toward N), but empty
  /// documents are permitted here so partial builders can stage data.
  explicit Document(std::vector<KeywordId> keywords);
  Document(std::initializer_list<KeywordId> keywords);

  /// True iff `w` is in the set. Binary search.
  bool Contains(KeywordId w) const;

  /// True iff every keyword in [first, first + count) is in the set.
  bool ContainsAll(const KeywordId* first, size_t count) const;

  size_t size() const { return keywords_.size(); }
  bool empty() const { return keywords_.empty(); }
  const std::vector<KeywordId>& keywords() const { return keywords_; }

  auto begin() const { return keywords_.begin(); }
  auto end() const { return keywords_.end(); }

  size_t MemoryBytes() const {
    return keywords_.capacity() * sizeof(KeywordId);
  }

  friend bool operator==(const Document& a, const Document& b) {
    return a.keywords_ == b.keywords_;
  }

 private:
  std::vector<KeywordId> keywords_;
};

}  // namespace kwsc

#endif  // KWSC_TEXT_DOCUMENT_H_
