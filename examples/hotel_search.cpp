// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The full hotel scenario of the paper's introduction, at realistic scale:
// Hotel(price, rating, Doc) with 200k hotels, querying
//   C1  price in [100, 200] and rating >= 8           (ORP-KW, Theorem 1)
//   C2  c1*price + c2*(10 - rating) <= c3             (LC-KW, Theorem 5)
//   NN  the t best-value hotels near a target point   (L∞NN-KW, Corollary 4)
// each with keywords {pool, free-parking, pet-friendly}, against both naive
// baselines, with per-query work statistics — a miniature of the candidate
// blow-up argument that motivates the paper.
//
//   $ ./build/examples/hotel_search

#include <cstdio>
#include <vector>

#include "baseline/keywords_only.h"
#include "baseline/structured_only.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/lc_kw.h"
#include "core/nn_linf.h"
#include "core/orp_kw.h"
#include "text/corpus.h"

namespace {

using namespace kwsc;

constexpr KeywordId kPool = 0;
constexpr KeywordId kFreeParking = 1;
constexpr KeywordId kPetFriendly = 2;

struct Hotels {
  Corpus corpus;
  std::vector<Point<2>> points;  // (price, rating).
};

Hotels MakeHotels(uint32_t n) {
  Rng rng(2023);
  std::vector<Document> docs;
  std::vector<Point<2>> points;
  docs.reserve(n);
  points.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<KeywordId> tags;
    if (rng.NextBool(0.55)) tags.push_back(kPool);
    if (rng.NextBool(0.45)) tags.push_back(kFreeParking);
    if (rng.NextBool(0.30)) tags.push_back(kPetFriendly);
    // Brand / neighbourhood / style tags with a long tail.
    tags.push_back(static_cast<KeywordId>(3 + rng.NextBounded(500)));
    tags.push_back(static_cast<KeywordId>(503 + rng.NextBounded(2000)));
    docs.emplace_back(std::move(tags));
    points.push_back({{rng.UniformDouble(30, 500),
                       std::min(10.0, 2.0 + 8.0 * rng.NextDouble() +
                                          rng.NextGaussian() * 0.5)}});
  }
  return {Corpus(docs), std::move(points)};
}

template <typename Fn>
double TimeUs(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedMicros();
}

}  // namespace

int main() {
  const uint32_t n = 200000;
  Hotels data = MakeHotels(n);
  std::printf("dataset: %u hotels, N = %llu keyword occurrences\n", n,
              static_cast<unsigned long long>(data.corpus.total_weight()));

  FrameworkOptions opt3;
  opt3.k = 3;
  OrpKwIndex<2> orp(data.points, &data.corpus, opt3);
  LcKwIndex<2> lc(data.points, &data.corpus, opt3);
  LinfNnIndex<2> nn(data.points, &data.corpus, opt3);
  StructuredOnlyBaseline<2> structured(data.points, &data.corpus);
  KeywordsOnlyBaseline<2> keywords_only(data.points, &data.corpus);

  std::vector<KeywordId> kws = {kPool, kFreeParking, kPetFriendly};

  // --- C1: range + keywords -------------------------------------------
  Box<2> c1{{{100, 8}}, {{200, 10}}};
  QueryStats stats;
  std::vector<ObjectId> r_index;
  const double t_index = TimeUs([&] { r_index = orp.Query(c1, kws, &stats); });
  BaselineStats s_stats;
  std::vector<ObjectId> r_struct;
  const double t_struct =
      TimeUs([&] { r_struct = structured.QueryBox(c1, kws, &s_stats); });
  BaselineStats k_stats;
  std::vector<ObjectId> r_kw;
  const double t_kw =
      TimeUs([&] { r_kw = keywords_only.QueryBox(c1, kws, &k_stats); });

  std::printf("\nC1: price in [100,200], rating >= 8, pool+parking+pets\n");
  std::printf("  results: %zu (all three methods agree: %s)\n",
              r_index.size(),
              r_index.size() == r_struct.size() &&
                      r_struct.size() == r_kw.size()
                  ? "yes"
                  : "NO");
  std::printf("  kwsc index:      %8.1f us, %llu objects examined\n", t_index,
              static_cast<unsigned long long>(stats.ObjectsExamined()));
  std::printf("  structured-only: %8.1f us, %llu candidates filtered\n",
              t_struct, static_cast<unsigned long long>(s_stats.candidates));
  std::printf("  keywords-only:   %8.1f us, %llu candidates filtered\n", t_kw,
              static_cast<unsigned long long>(k_stats.candidates));

  // --- C2: linear constraint + keywords -------------------------------
  // 1.0 * price + 40 * (10 - rating) <= 300  <=>  price - 40*rating <= -100.
  ConvexQuery<2> c2;
  c2.constraints.push_back({{{1.0, -40.0}}, -100.0});
  std::vector<ObjectId> lc_hits;
  const double t_lc = TimeUs([&] { lc_hits = lc.Query(c2, kws); });
  BaselineStats lc_struct_stats;
  std::vector<ObjectId> lc_struct;
  const double t_lc_struct = TimeUs(
      [&] { lc_struct = structured.QueryConvex(c2, kws, &lc_struct_stats); });
  std::printf("\nC2: price + 40*(10 - rating) <= 300, same keywords\n");
  std::printf("  best-value hotels: %zu (agrees with baseline: %s)\n",
              lc_hits.size(), lc_hits.size() == lc_struct.size() ? "yes" : "NO");
  std::printf("  kwsc LC index:   %8.1f us\n", t_lc);
  std::printf("  structured-only: %8.1f us (%llu candidates)\n", t_lc_struct,
              static_cast<unsigned long long>(lc_struct_stats.candidates));

  // --- NN: t closest hotels in (price, rating) space ------------------
  Point<2> target{{120, 9}};
  std::vector<ObjectId> nearest;
  const double t_nn = TimeUs([&] { nearest = nn.Query(target, 5, kws); });
  std::printf("\nNN: 5 hotels nearest to (price 120, rating 9) with all "
              "amenities (%.1f us):\n", t_nn);
  for (ObjectId e : nearest) {
    std::printf("  hotel %6u: price %6.1f, rating %4.1f, L-inf distance "
                "%.2f\n",
                e, data.points[e][0], data.points[e][1],
                LInfDistance(data.points[e], target));
  }

  std::printf("\nindex sizes: orp %zu B, lc %zu B, nn %zu B (N = %llu)\n",
              orp.MemoryBytes(), lc.MemoryBytes(), nn.MemoryBytes(),
              static_cast<unsigned long long>(data.corpus.total_weight()));
  return 0;
}
