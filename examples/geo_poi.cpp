// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Geographic point-of-interest search: the two query forms of the
// spatial-keyword literature the paper derives in Corollaries 6 and 7.
//   * "all cafes with wifi within 500 m of here"  — SRP-KW (boolean range
//     query with keywords [22]);
//   * "the 5 nearest pharmacies that are open-late" — L2NN-KW on an integer
//     grid (city coordinates in meters).
//
//   $ ./build/examples/geo_poi

#include <cstdio>
#include <vector>

#include "baseline/keywords_only.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/nn_l2.h"
#include "core/srp_kw.h"
#include "text/corpus.h"

namespace {

using namespace kwsc;

// Category/amenity vocabulary.
constexpr KeywordId kCafe = 0;
constexpr KeywordId kPharmacy = 1;
constexpr KeywordId kRestaurant = 2;
constexpr KeywordId kWifi = 3;
constexpr KeywordId kOpenLate = 4;
constexpr KeywordId kTakeaway = 5;
const char* kNames[] = {"cafe", "pharmacy", "restaurant",
                        "wifi", "open-late", "takeaway"};

struct City {
  Corpus corpus;
  std::vector<IntPoint<2>> locations;  // Meters on a 50 km x 50 km grid.
};

City MakeCity(uint32_t n_pois) {
  Rng rng(60611);
  std::vector<Document> docs;
  std::vector<IntPoint<2>> locations;
  for (uint32_t i = 0; i < n_pois; ++i) {
    std::vector<KeywordId> tags;
    tags.push_back(static_cast<KeywordId>(rng.NextBounded(3)));  // Category.
    if (rng.NextBool(0.5)) tags.push_back(kWifi);
    if (rng.NextBool(0.2)) tags.push_back(kOpenLate);
    if (rng.NextBool(0.3)) tags.push_back(kTakeaway);
    tags.push_back(static_cast<KeywordId>(6 + rng.NextBounded(300)));  // Name.
    docs.emplace_back(std::move(tags));
    // Clustered around a few districts.
    const int64_t cx = 5000 + 10000 * static_cast<int64_t>(rng.NextBounded(5));
    const int64_t cy = 5000 + 10000 * static_cast<int64_t>(rng.NextBounded(5));
    locations.push_back(
        {{cx + static_cast<int64_t>(rng.NextGaussian() * 2000),
          cy + static_cast<int64_t>(rng.NextGaussian() * 2000)}});
  }
  return {Corpus(docs), std::move(locations)};
}

}  // namespace

int main() {
  const uint32_t n = 150000;
  City city = MakeCity(n);
  std::printf("city: %u POIs, N = %llu tag occurrences\n", n,
              static_cast<unsigned long long>(city.corpus.total_weight()));

  // Double-typed view of the same locations for the SRP index.
  std::vector<Point<2>> locations_d(city.locations.size());
  for (size_t i = 0; i < city.locations.size(); ++i) {
    locations_d[i] = {{static_cast<double>(city.locations[i][0]),
                       static_cast<double>(city.locations[i][1])}};
  }

  FrameworkOptions opt;
  opt.k = 2;
  SrpKwIndex<2> within(locations_d, &city.corpus, opt);
  L2NnIndex<2> nearest(city.locations, &city.corpus, opt);
  KeywordsOnlyBaseline<2> baseline(locations_d, &city.corpus);

  const Point<2> here{{25000.0, 25000.0}};
  const IntPoint<2> here_int{{25000, 25000}};

  // --- within-radius query --------------------------------------------
  const double radius_m = 3000.0;
  std::vector<KeywordId> cafe_wifi = {kCafe, kWifi};
  QueryStats stats;
  WallTimer timer;
  auto in_range = within.Query(here, radius_m * radius_m, cafe_wifi, &stats);
  const double t_srp = timer.ElapsedMicros();
  timer.Restart();
  auto base_hits = baseline.QueryBall(here, radius_m * radius_m, cafe_wifi);
  const double t_base = timer.ElapsedMicros();
  std::printf("\n%ss with %s within %.0f m: %zu (baseline agrees: %s)\n",
              kNames[kCafe], kNames[kWifi], radius_m, in_range.size(),
              in_range.size() == base_hits.size() ? "yes" : "NO");
  std::printf("  kwsc SRP-KW:   %8.1f us (%llu objects examined)\n", t_srp,
              static_cast<unsigned long long>(stats.ObjectsExamined()));
  std::printf("  keywords-only: %8.1f us\n", t_base);

  // --- t-nearest query -------------------------------------------------
  std::vector<KeywordId> late_pharmacy = {kPharmacy, kOpenLate};
  timer.Restart();
  auto top5 = nearest.Query(here_int, 5, late_pharmacy);
  const double t_nn = timer.ElapsedMicros();
  std::printf("\n5 nearest %s %ss (%.1f us):\n", kNames[kOpenLate],
              kNames[kPharmacy], t_nn);
  for (ObjectId e : top5) {
    const double d = std::sqrt(static_cast<double>(
        L2DistanceSquared(city.locations[e], here_int)));
    std::printf("  poi %6u at (%lld, %lld), %.0f m away\n", e,
                static_cast<long long>(city.locations[e][0]),
                static_cast<long long>(city.locations[e][1]), d);
  }

  std::printf("\nindex sizes: srp %zu B, l2nn %zu B\n", within.MemoryBytes(),
              nearest.MemoryBytes());
  return 0;
}
