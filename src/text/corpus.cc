// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "text/corpus.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/memory.h"

namespace kwsc {

Corpus::Corpus(const std::vector<Document>& docs) {
  uint64_t keywords = 0;
  for (const Document& d : docs) keywords += d.size();
  Reserve(docs.size(), keywords);
  for (const Document& d : docs) Append(d.keywords());
}

void Corpus::Reserve(size_t objects, uint64_t keywords) {
  offsets_.reserve(offsets_.size() + objects);
  signatures_.reserve(signatures_.size() + objects);
  keywords_.reserve(keywords_.size() + keywords);
}

void Corpus::Append(std::span<const KeywordId> keywords) {
  KWSC_CHECK_MSG(!keywords.empty(), "object %u has an empty document",
                 static_cast<ObjectId>(num_objects()));
  uint64_t signature = 0;
  for (KeywordId w : keywords) signature |= SignatureBit(w);
  keywords_.insert(keywords_.end(), keywords.begin(), keywords.end());
  offsets_.push_back(keywords_.size());
  signatures_.push_back(signature);
  vocab_size_ = std::max(vocab_size_, keywords.back() + 1);
}

void Corpus::Save(std::ostream* out) const {
  FlatArenaWriter writer(kFlatFamilyTag);
  FlatRoot root{};
  root.num_objects = num_objects();
  root.total_weight = total_weight();
  root.offsets = writer.Slab<uint64_t>(offsets_);
  root.keywords = writer.Slab<KeywordId>(keywords_);
  writer.Root(root);
  writer.WriteTo(out);
}

Corpus Corpus::Load(std::istream* in) {
  return *FromFlat(*ReadFlatContainer(in), AbortingFlatErrorSink());
}

std::optional<Corpus> Corpus::FromFlat(const MmapFile& file,
                                       const FlatErrorSink& sink) {
  const auto fail = [&sink](const std::string& message) {
    sink("corpus: " + message);
    return std::nullopt;
  };
  if (!FlatArenaReader::Validate(file, 0, kFlatFamilyTag, sink)) {
    return std::nullopt;
  }
  const FlatArenaReader reader(file, 0, kFlatFamilyTag);
  if (!reader.RootOk<FlatRoot>()) return fail("root size mismatch");
  const FlatRoot& root = reader.Root<FlatRoot>();
  if (root.num_objects >= kInvalidObjectId) {
    return fail("object count " + std::to_string(root.num_objects) +
                " exceeds the ObjectId range");
  }
  if (root.offsets.count != root.num_objects + 1 ||
      !reader.SlabOk<uint64_t>(root.offsets)) {
    return fail("offsets slab does not hold num_objects + 1 entries");
  }
  if (root.keywords.count != root.total_weight ||
      !reader.SlabOk<KeywordId>(root.keywords)) {
    return fail("keywords slab does not hold total_weight entries");
  }
  const std::span<const uint64_t> offsets =
      reader.Slab<uint64_t>(root.offsets);
  const std::span<const KeywordId> keywords =
      reader.Slab<KeywordId>(root.keywords);
  if (offsets.front() != 0 || offsets.back() != keywords.size()) {
    return fail("offsets do not run from 0 to the keyword count");
  }
  Corpus corpus;
  corpus.signatures_.resize(offsets.size() - 1);
  for (size_t e = 0; e + 1 < offsets.size(); ++e) {
    const uint64_t begin = offsets[e];
    const uint64_t end = offsets[e + 1];
    if (end <= begin || end > keywords.size()) {
      return fail("object " + std::to_string(e) +
                  " has an empty or out-of-range document");
    }
    uint64_t signature = SignatureBit(keywords[begin]);
    for (uint64_t i = begin + 1; i < end; ++i) {
      if (keywords[i] <= keywords[i - 1]) {
        return fail("object " + std::to_string(e) +
                    " has keywords out of order or repeated");
      }
      signature |= SignatureBit(keywords[i]);
    }
    // W = max keyword + 1 must fit a KeywordId.
    if (keywords[end - 1] == std::numeric_limits<KeywordId>::max()) {
      return fail("object " + std::to_string(e) + " holds keyword id " +
                  std::to_string(keywords[end - 1]));
    }
    corpus.signatures_[e] = signature;
    corpus.vocab_size_ = std::max(corpus.vocab_size_, keywords[end - 1] + 1);
  }
  corpus.offsets_.assign(offsets.begin(), offsets.end());
  corpus.keywords_.assign(keywords.begin(), keywords.end());
  return corpus;
}

size_t Corpus::MemoryBytes() const {
  return VectorBytes(offsets_) + VectorBytes(keywords_) +
         VectorBytes(signatures_);
}

}  // namespace kwsc
