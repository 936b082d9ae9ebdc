// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Persistence: build an ORP-KW index once, save it with the corpus to disk,
// and reload both in a fraction of the build time — the workflow a serving
// system uses (build offline, load on start-up). The index is written as a
// flat container and reloaded by mapping the file (LoadFlat); the corpus is
// its own flat container, read back with Corpus::Load and supplied again on
// load.
//
//   $ ./build/examples/persist_reload

#include <cstdio>
#include <fstream>

#include "common/flat_arena.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/orp_kw.h"
#include "workload/generator.h"

int main() {
  using namespace kwsc;

  const uint32_t n = 100000;
  Rng rng(9);
  CorpusSpec spec;
  spec.num_objects = n;
  spec.vocab_size = 4096;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto points = GeneratePoints<2>(n, PointDistribution::kClustered, &rng);

  FrameworkOptions options;
  options.k = 2;

  WallTimer build_timer;
  OrpKwIndex<2> index(points, &corpus, options);
  const double build_ms = build_timer.ElapsedMillis();

  const char* corpus_path = "/tmp/kwsc_demo.corpus";
  const char* index_path = "/tmp/kwsc_demo.index";
  {
    std::ofstream corpus_out(corpus_path, std::ios::binary);
    corpus.Save(&corpus_out);
    std::ofstream index_out(index_path, std::ios::binary);
    index.SaveFlat(&index_out);
  }

  WallTimer load_timer;
  std::ifstream corpus_in(corpus_path, std::ios::binary);
  Corpus loaded_corpus = Corpus::Load(&corpus_in);
  const auto index_file = MmapFile::Open(index_path);
  if (index_file == nullptr) return 1;
  OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(index_file, &loaded_corpus);
  const double load_ms = load_timer.ElapsedMillis();

  // Same answers from the reloaded index.
  auto q = GenerateBoxQuery(std::span<const Point<2>>(points), 0.05, &rng);
  auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng);
  const auto before = index.Query(q, kws);
  const auto after = loaded.Query(q, kws);

  std::printf("objects: %u (N = %llu)\n", n,
              static_cast<unsigned long long>(corpus.total_weight()));
  std::printf("build: %.1f ms   save+load: %.1f ms (%.1fx faster)\n",
              build_ms, load_ms, build_ms / load_ms);
  std::printf("query results before/after reload: %zu / %zu (%s)\n",
              before.size(), after.size(),
              before == after ? "identical" : "MISMATCH");
  std::remove(corpus_path);
  std::remove(index_path);
  return before == after ? 0 : 1;
}
