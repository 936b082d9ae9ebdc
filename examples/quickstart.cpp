// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Quickstart: index a handful of objects and run one keyword + range query.
//
//   $ ./build/examples/quickstart
//
// The public API in three steps:
//   1. build a Corpus (one keyword set per object) and a matching point
//      array (ObjectId i owns points[i]);
//   2. construct an index for a fixed keyword count k;
//   3. query with a rectangle plus exactly k distinct keywords.

#include <cstdio>
#include <vector>

#include "core/orp_kw.h"
#include "text/corpus.h"

int main() {
  using namespace kwsc;

  // Keywords (integers in the library; map your own vocabulary on top).
  constexpr KeywordId kPool = 0;
  constexpr KeywordId kParking = 1;
  constexpr KeywordId kPets = 2;

  // Five hotels: (price, rating) plus amenity tags.
  std::vector<Document> docs = {
      Document{kPool, kParking},         // 0: cheap, average
      Document{kPool, kPets},            // 1: pricey, great
      Document{kPool, kParking, kPets},  // 2: mid, good
      Document{kParking},                // 3: cheap, poor
      Document{kPool, kParking, kPets},  // 4: luxury, great
  };
  std::vector<Point<2>> points = {
      {{80, 6.5}}, {{240, 9.1}}, {{150, 8.2}}, {{60, 4.0}}, {{390, 9.8}},
  };
  Corpus corpus(docs);

  FrameworkOptions options;
  options.k = 2;  // Every query supplies exactly two keywords.
  OrpKwIndex<2> index(points, &corpus, options);

  // "price in [100, 200] and rating >= 8, with pool and pet-friendly" —
  // condition C1 of the paper's introduction.
  Box<2> range{{{100, 8.0}}, {{200, 10.0}}};
  std::vector<KeywordId> keywords = {kPool, kPets};
  std::vector<ObjectId> hits = index.Query(range, keywords);

  std::printf("hotels with pool + pets, price 100-200, rating >= 8:\n");
  for (ObjectId e : hits) {
    std::printf("  hotel %u  (price %.0f, rating %.1f)\n", e, points[e][0],
                points[e][1]);
  }
  std::printf("index memory: %zu bytes for N = %llu\n", index.MemoryBytes(),
              static_cast<unsigned long long>(corpus.total_weight()));
  return 0;
}
