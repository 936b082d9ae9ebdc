// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "text/corpus.h"

#include <algorithm>

#include "common/memory.h"
#include "common/serialize.h"
#include "core/format_versions.h"

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
  OutputArchive ar(out);
  ar.Magic("KWCP", kCorpusFormatVersion);
  ar.Pod<uint64_t>(num_objects());
  for (ObjectId e = 0; e < num_objects(); ++e) ar.Vec(doc(e).keywords());
}

Corpus Corpus::Load(std::istream* in) {
  InputArchive ar(in);
  const uint32_t version = ar.Magic("KWCP");
  KWSC_CHECK_MSG(version == kCorpusFormatVersion,
                 "unsupported corpus version %u", version);
  const uint64_t count = ar.Pod<uint64_t>();
  // Every document takes at least its 8-byte length prefix, so a count the
  // stream cannot hold is corrupt; it must fail here, not in the reserve.
  const uint64_t remaining = ar.RemainingBytes();
  KWSC_CHECK_MSG(count <= remaining / sizeof(uint64_t),
                 "corpus document count %llu exceeds remaining archive bytes",
                 static_cast<unsigned long long>(count));
  KWSC_CHECK_MSG(count < kInvalidObjectId,
                 "corpus document count %llu exceeds the ObjectId range",
                 static_cast<unsigned long long>(count));
  Corpus corpus;
  if (remaining != UINT64_MAX) {
    // The keywords take the bytes the length prefixes do not, unless the
    // stream holds more than this corpus; the shrink below trims that.
    const uint64_t keyword_bytes = remaining - count * sizeof(uint64_t);
    corpus.Reserve(count, keyword_bytes / sizeof(KeywordId));
  }
  for (uint64_t i = 0; i < count; ++i) {
    // Canonicalizes (sorts, deduplicates) a document written out of order.
    corpus.Append(Document(ar.Vec<KeywordId>()).keywords());
  }
  corpus.keywords_.shrink_to_fit();
  return corpus;
}

size_t Corpus::MemoryBytes() const {
  return VectorBytes(offsets_) + VectorBytes(keywords_) +
         VectorBytes(signatures_);
}

}  // namespace kwsc
