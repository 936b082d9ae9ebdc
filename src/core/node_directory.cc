// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "core/node_directory.h"

#include <algorithm>

#include "common/memory.h"

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

/// The large table's flat image is keyword-sorted, so the lid lookup is a
/// binary search instead of a hash probe.
const FlatLargeEntry* FindLargeEntry(std::span<const FlatLargeEntry> large,
                                     KeywordId w) {
  const auto it = std::lower_bound(
      large.begin(), large.end(), w,
      [](const FlatLargeEntry& e, KeywordId key) { return e.keyword < key; });
  if (it == large.end() || it->keyword != w) return nullptr;
  return &*it;
}

}  // namespace

uint64_t NodeDirectory::EncodeTuple(std::span<const uint32_t> lids) {
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

int64_t NodeDirectory::LargeId(KeywordId w) const {
  if (flat_mode_) {
    const FlatLargeEntry* entry = FindLargeEntry(flat_.large, w);
    return entry == nullptr ? -1 : static_cast<int64_t>(entry->lid);
  }
  const uint32_t* id = large_.Find(w);
  return id == nullptr ? -1 : static_cast<int64_t>(*id);
}

bool NodeDirectory::ResolveLarge(std::span<const KeywordId> sorted_keywords,
                                 uint32_t* lids,
                                 KeywordId* small_keyword) const {
  if (flat_mode_) {
    for (size_t i = 0; i < sorted_keywords.size(); ++i) {
      const FlatLargeEntry* entry =
          FindLargeEntry(flat_.large, sorted_keywords[i]);
      if (entry == nullptr) {
        *small_keyword = sorted_keywords[i];
        return false;
      }
      lids[i] = entry->lid;
    }
    return true;
  }
  for (size_t i = 0; i < sorted_keywords.size(); ++i) {
    const uint32_t* id = large_.Find(sorted_keywords[i]);
    if (id == nullptr) {
      *small_keyword = sorted_keywords[i];
      return false;
    }
    lids[i] = *id;
  }
  return true;
}

bool NodeDirectory::ChildTupleContainsKey(size_t c, uint64_t key) const {
  if (flat_mode_) {
    const std::span<const uint64_t> keys = flat_.child_tuples[c];
    return std::binary_search(keys.begin(), keys.end(), key);
  }
  return child_tuples_[c].Contains(key);
}

std::optional<std::span<const ObjectId>> NodeDirectory::MaterializedList(
    KeywordId w) const {
  if (flat_mode_) {
    const auto it = std::lower_bound(
        flat_.materialized.begin(), flat_.materialized.end(), w,
        [](const FlatMatEntry& e, KeywordId key) { return e.keyword < key; });
    if (it == flat_.materialized.end() || it->keyword != w) return std::nullopt;
    return flat_.mat_pool.subspan(it->begin, it->count);
  }
  const std::vector<ObjectId>* list = materialized_.Find(w);
  if (list == nullptr) return std::nullopt;
  return std::span<const ObjectId>(*list);
}

std::vector<FlatLargeEntry> NodeDirectory::LargeEntriesSorted() const {
  if (flat_mode_) {
    return std::vector<FlatLargeEntry>(flat_.large.begin(), flat_.large.end());
  }
  std::vector<FlatLargeEntry> entries;
  entries.reserve(large_.size());
  large_.ForEach(
      [&](KeywordId w, uint32_t lid) { entries.push_back({w, lid}); });
  // Deterministic archives: canonicalize the hash-table dump order.
  std::sort(entries.begin(), entries.end(),
            [](const FlatLargeEntry& a, const FlatLargeEntry& b) {
              return a.keyword < b.keyword;
            });
  return entries;
}

std::vector<uint64_t> NodeDirectory::ChildTupleKeysSorted(size_t c) const {
  if (flat_mode_) {
    const std::span<const uint64_t> span = flat_.child_tuples[c];
    return std::vector<uint64_t>(span.begin(), span.end());
  }
  std::vector<uint64_t> keys;
  keys.reserve(child_tuples_[c].size());
  child_tuples_[c].ForEach([&keys](uint64_t key) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<KeywordId> NodeDirectory::OwnedMaterializedKeywordsSorted() const {
  std::vector<KeywordId> keywords;
  keywords.reserve(materialized_.size());
  materialized_.ForEach(
      [&keywords](KeywordId w, const std::vector<ObjectId>&) {
        keywords.push_back(w);
      });
  std::sort(keywords.begin(), keywords.end());
  return keywords;
}

void NodeDirectory::AttachFlat(const FlatDirView& view) {
  KWSC_CHECK(view.num_children <= FlatDirView::kMaxChildren);
  pivots_ = std::vector<ObjectId>();
  large_ = FlatHashMap<KeywordId, uint32_t>();
  child_tuples_ = std::vector<FlatHashSet<uint64_t>>();
  materialized_ = FlatHashMap<KeywordId, std::vector<ObjectId>>();
  weight_ = 0;
  flat_mode_ = true;
  flat_ = view;
}

size_t NodeDirectory::MemoryBytes() const {
  if (flat_mode_) return 0;  // contents live in the mapping, not the heap
  size_t total = VectorBytes(pivots_) + large_.MemoryBytes();
  total += child_tuples_.capacity() * sizeof(FlatHashSet<uint64_t>);
  for (const auto& set : child_tuples_) total += set.MemoryBytes();
  total += materialized_.MemoryBytes();
  materialized_.ForEach(
      [&total](KeywordId, const std::vector<ObjectId>& list) {
        total += VectorBytes(list);
      });
  return total;
}

uint64_t DirectoryBuilder::WeightOf(std::span<const ObjectId> objects) const {
  uint64_t weight = 0;
  for (ObjectId e : objects) weight += corpus_->doc(e).size();
  return weight;
}

void DirectoryBuilder::BuildLeaf(std::span<const ObjectId> active,
                                 NodeDirectory* dir) {
  dir->pivots_.assign(active.begin(), active.end());
  dir->weight_ = WeightOf(active);
}

void DirectoryBuilder::Build(
    std::span<const ObjectId> active,
    std::span<const std::vector<ObjectId>> child_active,
    const std::vector<KeywordId>* inherited, std::vector<ObjectId> pivots,
    NodeDirectory* dir, std::vector<KeywordId>* next_inherited) {
  dir->pivots_ = std::move(pivots);
  dir->weight_ = WeightOf(active);

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

  // Classify: w is large iff count >= max(1, N_u^alpha) (Section 3.2).
  const double threshold =
      LargeThreshold(dir->weight_, options_.EffectiveAlpha());
  std::vector<KeywordId> larges;
  counts_.ForEach([&](KeywordId w, uint32_t count) {
    if (static_cast<double>(count) >= threshold) larges.push_back(w);
  });
  std::sort(larges.begin(), larges.end());
  dir->large_.Reserve(larges.size());
  for (uint32_t lid = 0; lid < larges.size(); ++lid) {
    dir->large_[larges[lid]] = lid;
  }
  if (next_inherited != nullptr) *next_inherited = larges;

  // Pass 2: materialized lists D_u^act(w) for keywords small at u but
  // inherited (large at all proper ancestors). Objects are appended in
  // active-set order, giving deterministic lists. The node's own pivots are
  // excluded: the query algorithm scans the pivot set unconditionally on
  // every visit, so listing a pivot again would report it twice (the paper's
  // D_u^act(w) contains D_u^pvt, where the duplication is harmless only
  // because it reports sets).
  if (options_.enable_materialized_lists) {
    for (ObjectId e : active) {
      if (std::find(dir->pivots_.begin(), dir->pivots_.end(), e) !=
          dir->pivots_.end()) {
        continue;
      }
      for (KeywordId w : corpus_->doc(e)) {
        const uint32_t* count = counts_.Find(w);
        if (count != nullptr && static_cast<double>(*count) < threshold) {
          dir->materialized_[w].push_back(e);
        }
      }
    }
  }

  // Pass 3: per-child registry of realized non-empty k-tuples. A tuple of
  // large keywords has a non-empty intersection inside child c iff some
  // object in the child's active set carries all k of them, so enumerating
  // k-combinations of each object's large keywords generates exactly the
  // non-empty cells of the paper's bit array.
  dir->child_tuples_.assign(child_active.size(), FlatHashSet<uint64_t>());
  if (options_.enable_tuple_pruning) {
    std::vector<uint32_t> doc_lids;
    for (size_t c = 0; c < child_active.size(); ++c) {
      FlatHashSet<uint64_t>& tuples = dir->child_tuples_[c];
      for (ObjectId e : child_active[c]) {
        doc_lids.clear();
        // doc is keyword-sorted and lids increase with keyword, so doc_lids
        // is sorted ascending.
        for (KeywordId w : corpus_->doc(e)) {
          const uint32_t* lid = dir->large_.Find(w);
          if (lid != nullptr) doc_lids.push_back(*lid);
        }
        ForEachCombination(doc_lids, options_.k,
                           [&tuples](std::span<const uint32_t> combo) {
                             tuples.Insert(NodeDirectory::EncodeTuple(combo));
                           });
      }
    }
  }
}

}  // namespace kwsc
