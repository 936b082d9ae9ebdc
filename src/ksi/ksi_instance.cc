// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "ksi/ksi_instance.h"

#include <algorithm>
#include <map>

#include "common/macros.h"

namespace kwsc {

KsiInstance KsiInstance::FromSets(
    const std::vector<std::vector<int64_t>>& sets) {
  KWSC_CHECK(sets.size() >= 2);
  // Element value -> the ids of the sets containing it. std::map keeps the
  // object numbering deterministic (sorted by value).
  std::map<int64_t, std::vector<KeywordId>> membership;
  for (KeywordId set_id = 0; set_id < sets.size(); ++set_id) {
    for (int64_t value : sets[set_id]) {
      std::vector<KeywordId>& ids = membership[value];
      if (ids.empty() || ids.back() != set_id) ids.push_back(set_id);
    }
  }

  KsiInstance instance;
  instance.num_sets = sets.size();
  instance.values.reserve(membership.size());
  std::vector<Document> docs;
  docs.reserve(membership.size());
  for (auto& [value, ids] : membership) {
    instance.values.push_back(value);
    docs.emplace_back(std::move(ids));
  }
  instance.corpus = Corpus(docs);
  return instance;
}

}  // namespace kwsc
