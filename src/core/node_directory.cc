// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "core/node_directory.h"

#include <algorithm>

namespace kwsc {

namespace {

/// Invokes `fn` on every k-combination of `sorted_lids` (ascending order is
/// preserved inside each combination). Combinations are emitted via a scratch
/// buffer to avoid per-combination allocation.
template <typename Fn>
void ForEachCombination(std::span<const uint32_t> sorted_lids, int k, Fn&& fn) {
  const int n = static_cast<int>(sorted_lids.size());
  if (n < k) return;
  std::vector<uint32_t> combo(k);
  std::vector<int> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    for (int i = 0; i < k; ++i) combo[i] = sorted_lids[idx[i]];
    fn(std::span<const uint32_t>(combo));
    // Advance to the next combination in lexicographic order.
    int pos = k - 1;
    while (pos >= 0 && idx[pos] == n - k + pos) --pos;
    if (pos < 0) break;
    ++idx[pos];
    for (int i = pos + 1; i < k; ++i) idx[i] = idx[i - 1] + 1;
  }
}

/// The element of `sorted` (ascending by key_of) whose key is `key`, or
/// nullptr. The lower bound selects each halving step with a conditional
/// move, as RankSpace::PartitionPoint does: a directory probe's comparisons
/// would mispredict a branch about every other step.
template <typename T, typename Key, typename KeyOf>
const T* FindSorted(std::span<const T> sorted, Key key, KeyOf key_of) {
  if (sorted.empty()) return nullptr;
  const T* base = sorted.data();
  for (size_t n = sorted.size(); n > 1;) {
    const size_t half = n / 2;
    base = key_of(base[half]) < key ? base + half : base;
    n -= half;
  }
  // `base` is the last element below `key`, or the first element.
  if (key_of(*base) < key) ++base;
  return base != sorted.data() + sorted.size() && key_of(*base) == key
             ? base
             : nullptr;
}

// The sort key of large and materialized entries.
constexpr auto kKeywordOf = [](const auto& entry) { return entry.keyword; };

}  // namespace

uint64_t EncodeTuple(std::span<const uint32_t> lids) {
  const int k = static_cast<int>(lids.size());
  const int bits = 64 / k;
  uint64_t key = 0;
  for (uint32_t lid : lids) {
    KWSC_DCHECK(bits >= 64 ||
                static_cast<uint64_t>(lid) < (uint64_t{1} << bits));
    key = (key << bits) | lid;
  }
  return key;
}

bool ResolveLarge(std::span<const FlatLargeEntry> large,
                  std::span<const KeywordId> sorted_keywords, uint32_t* lids,
                  KeywordId* small_keyword) {
  for (size_t i = 0; i < sorted_keywords.size(); ++i) {
    const FlatLargeEntry* entry =
        FindSorted(large, sorted_keywords[i], kKeywordOf);
    if (entry == nullptr) {
      *small_keyword = sorted_keywords[i];
      return false;
    }
    lids[i] = entry->lid;
  }
  return true;
}

const FlatMatEntry* FindMaterialized(std::span<const FlatMatEntry> materialized,
                                     KeywordId w) {
  return FindSorted(materialized, w, kKeywordOf);
}

bool ContainsTupleKey(std::span<const uint64_t> keys, uint64_t key) {
  return FindSorted(keys, key, [](uint64_t k) { return k; }) != nullptr;
}

uint64_t DirectoryBuilder::WeightOf(std::span<const ObjectId> objects) const {
  uint64_t weight = 0;
  for (ObjectId e : objects) weight += corpus_->doc(e).size();
  return weight;
}

const DirectoryContents& DirectoryBuilder::BuildLeaf(
    std::span<const ObjectId> active) {
  out_.weight = WeightOf(active);
  out_.pivots.assign(active.begin(), active.end());
  out_.large.clear();
  out_.child_tuples.clear();
  out_.materialized.clear();
  out_.mat_objects.clear();
  return out_;
}

const DirectoryContents& DirectoryBuilder::Build(
    std::span<const ObjectId> active,
    std::span<const std::vector<ObjectId>> child_active,
    const std::vector<KeywordId>* inherited, std::span<const ObjectId> pivots,
    std::vector<KeywordId>* next_inherited) {
  out_.weight = WeightOf(active);
  out_.pivots.assign(pivots.begin(), pivots.end());

  const bool all_inherited = inherited == nullptr;
  auto is_inherited = [&](KeywordId w) {
    return all_inherited ||
           std::binary_search(inherited->begin(), inherited->end(), w);
  };

  // Pass 1: occurrence counts of inherited keywords over the active set.
  counts_.Clear();
  for (ObjectId e : active) {
    for (KeywordId w : corpus_->doc(e)) {
      if (is_inherited(w)) ++counts_[w];
    }
  }

  // Classify: w is large iff count >= max(1, N_u^alpha) (Section 3.2). Local
  // ids follow keyword order, so the sorted table is canonical.
  const double threshold =
      LargeThreshold(out_.weight, options_.EffectiveAlpha());
  std::vector<KeywordId> larges;
  counts_.ForEach([&](KeywordId w, uint32_t count) {
    if (static_cast<double>(count) >= threshold) larges.push_back(w);
  });
  std::sort(larges.begin(), larges.end());
  out_.large.resize(larges.size());
  lids_.Clear();
  lids_.Reserve(larges.size());
  for (uint32_t lid = 0; lid < larges.size(); ++lid) {
    out_.large[lid] = {larges[lid], lid};
    lids_[larges[lid]] = lid;
  }
  if (next_inherited != nullptr) *next_inherited = std::move(larges);

  // Pass 2: materialized lists D_u^act(w) for keywords small at u but
  // inherited (large at all proper ancestors), each in active-set order:
  // one (keyword, position) key per entry, sorted, groups them by keyword.
  // The node's own pivots are excluded: the query algorithm scans the pivot
  // set unconditionally on every visit, so listing a pivot again would
  // report it twice (the paper's D_u^act(w) contains D_u^pvt, where the
  // duplication is harmless only because it reports sets).
  out_.materialized.clear();
  out_.mat_objects.clear();
  if (options_.enable_materialized_lists) {
    mat_keys_.clear();
    for (size_t i = 0; i < active.size(); ++i) {
      const ObjectId e = active[i];
      if (std::find(pivots.begin(), pivots.end(), e) != pivots.end()) {
        continue;
      }
      for (KeywordId w : corpus_->doc(e)) {
        const uint32_t* count = counts_.Find(w);
        if (count != nullptr && static_cast<double>(*count) < threshold) {
          mat_keys_.push_back(uint64_t{w} << 32 | i);
        }
      }
    }
    std::sort(mat_keys_.begin(), mat_keys_.end());
    for (uint64_t key : mat_keys_) {
      const KeywordId w = static_cast<KeywordId>(key >> 32);
      if (out_.materialized.empty() || out_.materialized.back().keyword != w) {
        out_.materialized.push_back({w, 0, out_.mat_objects.size()});
      }
      ++out_.materialized.back().count;
      out_.mat_objects.push_back(active[key & 0xffffffffu]);
    }
  }

  // Pass 3: per-child registry of realized non-empty k-tuples. A tuple of
  // large keywords has a non-empty intersection inside child c iff some
  // object in the child's active set carries all k of them, so enumerating
  // k-combinations of each object's large keywords generates exactly the
  // non-empty cells of the paper's bit array.
  out_.child_tuples.resize(child_active.size());
  std::vector<uint32_t> doc_lids;
  for (size_t c = 0; c < child_active.size(); ++c) {
    std::vector<uint64_t>& keys = out_.child_tuples[c];
    keys.clear();
    if (!options_.enable_tuple_pruning) continue;
    tuples_.Clear();
    for (ObjectId e : child_active[c]) {
      doc_lids.clear();
      // doc is keyword-sorted and lids increase with keyword, so doc_lids
      // is sorted ascending.
      for (KeywordId w : corpus_->doc(e)) {
        const uint32_t* lid = lids_.Find(w);
        if (lid != nullptr) doc_lids.push_back(*lid);
      }
      ForEachCombination(doc_lids, options_.k,
                         [this](std::span<const uint32_t> combo) {
                           tuples_.Insert(EncodeTuple(combo));
                         });
    }
    tuples_.ForEach([&keys](uint64_t key) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
  }
  return out_;
}

}  // namespace kwsc
