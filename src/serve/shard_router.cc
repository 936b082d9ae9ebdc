// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "serve/shard_router.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "core/balanced_cut.h"

namespace kwsc {

namespace {

/// Fills the derived plan fields (members, shard_weight) from shard_of.
/// Members come out in ascending global-id order because the scan is one
/// forward pass over ids.
void FinalizePlan(const Corpus& corpus, ShardPlan* plan) {
  const uint32_t s_count = plan->num_shards;
  plan->members.assign(s_count, {});
  plan->shard_weight.assign(s_count, 0);
  for (ObjectId e = 0; e < plan->shard_of.size(); ++e) {
    const uint32_t s = plan->shard_of[e];
    KWSC_CHECK(s < s_count);
    plan->members[s].push_back(e);
    plan->shard_weight[s] += corpus.doc(e).size();
  }
}

}  // namespace

ShardRouter::ShardRouter(ShardStrategy strategy, uint32_t num_shards)
    : strategy_(strategy), num_shards_(num_shards) {
  KWSC_CHECK_MSG(num_shards >= 1, "a plan needs at least one shard");
}

ShardPlan ShardRouter::Plan(const Corpus& corpus,
                            std::span<const double> axis_keys) const {
  if (strategy_ == ShardStrategy::kKeywordPartitioned) {
    return PlanKeyword(corpus);
  }
  return PlanSpace(corpus, axis_keys);
}

ShardPlan ShardRouter::PlanSpace(const Corpus& corpus,
                                 std::span<const double> axis_keys) const {
  KWSC_CHECK_MSG(axis_keys.size() == corpus.num_objects(),
                 "space partitioning needs one axis key per object "
                 "(%zu keys, %zu objects)",
                 axis_keys.size(), corpus.num_objects());
  ShardPlan plan;
  plan.strategy = ShardStrategy::kSpacePartitioned;
  plan.num_shards = num_shards_;
  plan.shard_of.assign(corpus.num_objects(), 0);
  if (num_shards_ > 1 && corpus.num_objects() > 0) {
    // Axis order with id tiebreak — the same convention RankSpace uses, so
    // the plan is a pure function of (keys, corpus, S).
    std::vector<ObjectId> order(corpus.num_objects());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
      if (axis_keys[a] != axis_keys[b]) return axis_keys[a] < axis_keys[b];
      return a < b;
    });
    const BalancedCut cut = ComputeBalancedCut(order, corpus, num_shards_);
    for (uint32_t g = 0; g < cut.groups.size(); ++g) {
      for (uint32_t pos = cut.groups[g].begin; pos < cut.groups[g].end;
           ++pos) {
        plan.shard_of[order[pos]] = g;
      }
    }
    // Separator e*_i sits between groups i and i+1; it joins the shard on
    // its left (any fixed side works — the choice just has to be
    // deterministic and keep the cover total).
    for (uint32_t i = 0; i < cut.separators.size(); ++i) {
      plan.shard_of[cut.separators[i]] = std::min(i, num_shards_ - 1);
    }
  }
  FinalizePlan(corpus, &plan);
  return plan;
}

ShardPlan ShardRouter::PlanKeyword(const Corpus& corpus) const {
  ShardPlan plan;
  plan.strategy = ShardStrategy::kKeywordPartitioned;
  plan.num_shards = num_shards_;
  plan.shard_of.assign(corpus.num_objects(), 0);
  if (num_shards_ > 1 && corpus.num_objects() > 0) {
    // Corpus keyword frequencies (document frequency; documents are sets).
    std::vector<uint64_t> freq(corpus.vocab_size(), 0);
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      for (KeywordId w : corpus.doc(e)) ++freq[w];
    }
    // Dominant keyword per object: highest corpus frequency, ties to the
    // smaller keyword id. Objects sharing a hot keyword group together.
    std::vector<KeywordId> dominant(corpus.num_objects());
    std::vector<uint64_t> group_weight(corpus.vocab_size(), 0);
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      const DocumentView d = corpus.doc(e);
      KeywordId best = *d.begin();
      for (KeywordId w : d) {
        if (freq[w] > freq[best]) best = w;
      }
      dominant[e] = best;
      group_weight[best] += d.size();
    }
    // Longest-processing-time packing: heaviest keyword group first onto
    // the lightest shard, ties broken toward smaller ids/indices so the
    // placement is deterministic.
    std::vector<KeywordId> groups;
    for (KeywordId w = 0; w < group_weight.size(); ++w) {
      if (group_weight[w] > 0) groups.push_back(w);
    }
    std::sort(groups.begin(), groups.end(), [&](KeywordId a, KeywordId b) {
      if (group_weight[a] != group_weight[b]) {
        return group_weight[a] > group_weight[b];
      }
      return a < b;
    });
    std::vector<uint64_t> load(num_shards_, 0);
    std::vector<uint32_t> shard_of_keyword(corpus.vocab_size(), 0);
    for (KeywordId w : groups) {
      uint32_t target = 0;
      for (uint32_t s = 1; s < num_shards_; ++s) {
        if (load[s] < load[target]) target = s;
      }
      shard_of_keyword[w] = target;
      load[target] += group_weight[w];
    }
    for (ObjectId e = 0; e < corpus.num_objects(); ++e) {
      plan.shard_of[e] = shard_of_keyword[dominant[e]];
    }
  }
  FinalizePlan(corpus, &plan);
  return plan;
}

}  // namespace kwsc
