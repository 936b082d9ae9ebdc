// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the k-SI module (Section 1.2): the instance translation, the
// naive inverted-index baseline, and the framework index (the generalized
// Cohen–Porat structure).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "ksi/framework_ksi.h"
#include "ksi/ksi_instance.h"
#include "ksi/naive_ksi.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

std::vector<int64_t> BruteIntersect(const std::vector<std::vector<int64_t>>& sets,
                                    std::span<const KeywordId> ids) {
  std::set<int64_t> acc(sets[ids[0]].begin(), sets[ids[0]].end());
  for (size_t i = 1; i < ids.size(); ++i) {
    std::set<int64_t> next;
    for (int64_t v : sets[ids[i]]) {
      if (acc.count(v)) next.insert(v);
    }
    acc = std::move(next);
  }
  return {acc.begin(), acc.end()};
}

TEST(KsiInstance, TranslationMatchesSection12) {
  std::vector<std::vector<int64_t>> sets = {{1, 5, 9}, {5, 9}, {9, 42}};
  auto instance = KsiInstance::FromSets(sets);
  // Union has 4 distinct elements; N = sum |S_i| = 7 (Eq. (2)).
  EXPECT_EQ(instance.values, (std::vector<int64_t>{1, 5, 9, 42}));
  EXPECT_EQ(instance.corpus.total_weight(), 7u);
  EXPECT_EQ(instance.num_sets, 3u);
  // Element 9 is in all three sets.
  EXPECT_EQ(std::vector<KeywordId>(instance.corpus.doc(2).keywords()),
            (std::vector<KeywordId>{0, 1, 2}));
}

TEST(KsiInstance, DuplicatesWithinSetCollapsed) {
  std::vector<std::vector<int64_t>> sets = {{7, 7, 7}, {7}};
  auto instance = KsiInstance::FromSets(sets);
  EXPECT_EQ(instance.values.size(), 1u);
  EXPECT_EQ(instance.corpus.total_weight(), 2u);
}

TEST(NaiveKsi, SmallExample) {
  std::vector<std::vector<int64_t>> sets = {{1, 2, 3}, {2, 3, 4}, {3, 4, 5}};
  auto instance = KsiInstance::FromSets(sets);
  NaiveKsi naive(&instance);
  std::vector<KeywordId> q01 = {0, 1};
  EXPECT_EQ(naive.Report(q01), (std::vector<int64_t>{2, 3}));
  std::vector<KeywordId> q012 = {0, 1, 2};
  EXPECT_EQ(naive.Report(q012), (std::vector<int64_t>{3}));
  EXPECT_FALSE(naive.Empty(q01));
}

TEST(FrameworkKsi, SmallExample) {
  std::vector<std::vector<int64_t>> sets = {{1, 2, 3}, {2, 3, 4}};
  auto instance = KsiInstance::FromSets(sets);
  FrameworkOptions opt;
  opt.k = 2;
  FrameworkKsi index(&instance, opt);
  std::vector<KeywordId> q = {0, 1};
  auto got = index.Report(q);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{2, 3}));
  EXPECT_FALSE(index.Empty(q));
}

struct KsiParam {
  size_t m;
  size_t universe;
  double avg_size;
  int k;
};

class KsiRandomizedTest : public ::testing::TestWithParam<KsiParam> {};

TEST_P(KsiRandomizedTest, AllThreeImplementationsAgree) {
  const auto p = GetParam();
  Rng rng(5000 + p.m + p.universe + p.k);
  auto sets = GenerateKsiSets(p.m, p.universe, p.avg_size, &rng);
  auto instance = KsiInstance::FromSets(sets);
  NaiveKsi naive(&instance);
  FrameworkOptions opt;
  opt.k = p.k;
  FrameworkKsi framework(&instance, opt);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<KeywordId> ids;
    while (ids.size() < static_cast<size_t>(p.k)) {
      KeywordId id = static_cast<KeywordId>(rng.NextBounded(p.m));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    auto expected = BruteIntersect(sets, ids);
    EXPECT_EQ(naive.Report(ids), expected);
    auto got = framework.Report(ids);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(naive.Empty(ids), expected.empty());
    EXPECT_EQ(framework.Empty(ids), expected.empty()) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KsiRandomizedTest,
                         ::testing::Values(KsiParam{5, 100, 20, 2},
                                           KsiParam{10, 500, 50, 2},
                                           KsiParam{10, 500, 50, 3},
                                           KsiParam{30, 2000, 80, 2},
                                           KsiParam{8, 50, 25, 4}));

TEST(FrameworkKsi, EmptyIntersectionDetectedQuickly) {
  // Two large sets with disjoint ranges: OUT = 0 and the emptiness query
  // must finish inside its O(N^{1/2}) budget (this is the whole point of the
  // structure vs. the naive baseline).
  std::vector<std::vector<int64_t>> sets(2);
  for (int64_t v = 0; v < 3000; ++v) sets[0].push_back(v);
  for (int64_t v = 3000; v < 6000; ++v) sets[1].push_back(v);
  auto instance = KsiInstance::FromSets(sets);
  FrameworkOptions opt;
  opt.k = 2;
  FrameworkKsi index(&instance, opt);
  std::vector<KeywordId> q = {0, 1};
  QueryStats stats;
  EXPECT_TRUE(index.Empty(q, &stats));
  // Work must be sublinear: far fewer object examinations than N = 6000.
  EXPECT_LT(stats.ObjectsExamined(), 1500u);
}

TEST(FrameworkKsi, ReportingCostScalesWithOutput) {
  // Planted overlap: both sets share exactly `overlap` elements.
  const int64_t n_side = 4000;
  const int64_t overlap = 32;
  std::vector<std::vector<int64_t>> sets(2);
  for (int64_t v = 0; v < n_side; ++v) sets[0].push_back(v);
  for (int64_t v = n_side - overlap; v < 2 * n_side - overlap; ++v) {
    sets[1].push_back(v);
  }
  auto instance = KsiInstance::FromSets(sets);
  FrameworkOptions opt;
  opt.k = 2;
  FrameworkKsi index(&instance, opt);
  std::vector<KeywordId> q = {0, 1};
  QueryStats stats;
  auto got = index.Report(q, &stats);
  EXPECT_EQ(got.size(), static_cast<size_t>(overlap));
  // Sublinear work: N = 8000, expected ~ sqrt(N) * sqrt(OUT) ~ 500.
  EXPECT_LT(stats.ObjectsExamined(), 4000u);
}

}  // namespace
}  // namespace kwsc
