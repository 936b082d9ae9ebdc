// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "workload/generator.h"

#include <cmath>

#include "common/flat_hash.h"
#include "common/macros.h"

namespace kwsc {

Corpus GenerateCorpus(const CorpusSpec& spec, Rng* rng) {
  KWSC_CHECK(spec.num_objects > 0);
  KWSC_CHECK(spec.vocab_size > 0);
  KWSC_CHECK(spec.min_doc_len >= 1);
  KWSC_CHECK(spec.min_doc_len <= spec.max_doc_len);
  KWSC_CHECK_MSG(spec.max_doc_len <= spec.vocab_size,
                 "documents cannot exceed the vocabulary");
  ZipfSampler zipf(spec.vocab_size, spec.zipf_skew);
  std::vector<Document> docs;
  docs.reserve(spec.num_objects);
  std::vector<KeywordId> scratch;
  for (uint32_t i = 0; i < spec.num_objects; ++i) {
    const uint32_t len = static_cast<uint32_t>(
        rng->UniformInt(spec.min_doc_len, spec.max_doc_len));
    scratch.clear();
    FlatHashSet<KeywordId> seen;
    // Rejection sampling for distinct keywords; bounded because
    // len <= vocab_size.
    while (scratch.size() < len) {
      const KeywordId w = static_cast<KeywordId>(zipf.Sample(rng));
      if (seen.Insert(w)) scratch.push_back(w);
    }
    docs.emplace_back(scratch);
  }
  return Corpus(docs);
}

std::vector<KeywordId> PickQueryKeywords(const Corpus& corpus, int k,
                                         KeywordPick pick, Rng* rng,
                                         uint32_t frequent_pool) {
  KWSC_CHECK(k >= 1);
  const uint32_t vocab = corpus.vocab_size();
  KWSC_CHECK(static_cast<uint32_t>(k) <= vocab);
  std::vector<KeywordId> chosen;
  FlatHashSet<KeywordId> seen;

  switch (pick) {
    case KeywordPick::kFrequent: {
      // Zipf generators assign low ids the highest popularity, so the top
      // `frequent_pool` ids are the frequent window.
      const uint32_t pool = std::max<uint32_t>(frequent_pool, k);
      while (chosen.size() < static_cast<size_t>(k)) {
        const KeywordId w =
            static_cast<KeywordId>(rng->NextBounded(std::min(pool, vocab)));
        if (seen.Insert(w)) chosen.push_back(w);
      }
      break;
    }
    case KeywordPick::kUniform: {
      while (chosen.size() < static_cast<size_t>(k)) {
        const KeywordId w = static_cast<KeywordId>(rng->NextBounded(vocab));
        if (seen.Insert(w)) chosen.push_back(w);
      }
      break;
    }
    case KeywordPick::kCooccurring: {
      // Draw documents until one has >= k keywords; take a random k-subset.
      for (int attempt = 0; attempt < 4096; ++attempt) {
        const ObjectId e =
            static_cast<ObjectId>(rng->NextBounded(corpus.num_objects()));
        const DocumentView doc = corpus.doc(e);
        if (doc.size() < static_cast<size_t>(k)) continue;
        std::vector<KeywordId> shuffled(doc.begin(), doc.end());
        for (size_t i = shuffled.size(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng->NextBounded(i)]);
        }
        chosen.assign(shuffled.begin(), shuffled.begin() + k);
        break;
      }
      // Fallback (no document long enough): uniform distinct.
      while (chosen.size() < static_cast<size_t>(k)) {
        const KeywordId w = static_cast<KeywordId>(rng->NextBounded(vocab));
        if (seen.Insert(w) &&
            std::find(chosen.begin(), chosen.end(), w) == chosen.end()) {
          chosen.push_back(w);
        }
      }
      break;
    }
  }
  return chosen;
}

std::vector<std::vector<int64_t>> GenerateKsiSets(size_t m, size_t universe,
                                                  double avg_set_size,
                                                  Rng* rng) {
  KWSC_CHECK(m >= 2);
  KWSC_CHECK(universe >= 1);
  // Set sizes ~ Zipf over ranks, scaled so the mean is avg_set_size.
  std::vector<double> raw(m);
  double total = 0;
  for (size_t i = 0; i < m; ++i) {
    raw[i] = 1.0 / static_cast<double>(i + 1);
    total += raw[i];
  }
  const double scale = avg_set_size * static_cast<double>(m) / total;
  std::vector<std::vector<int64_t>> sets(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t size = std::max<size_t>(
        1, std::min(universe, static_cast<size_t>(raw[i] * scale)));
    FlatHashSet<uint64_t> seen;
    while (sets[i].size() < size) {
      const int64_t v = static_cast<int64_t>(rng->NextBounded(universe));
      if (seen.Insert(static_cast<uint64_t>(v))) sets[i].push_back(v);
    }
  }
  return sets;
}

}  // namespace kwsc
