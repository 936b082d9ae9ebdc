// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment L — load path of the v2 mmap flat layout (DESIGN.md, "On-disk
// layout v2"), the one on-disk form of an index.
//
// For each corpus size the bench builds an OrpKwIndex<2>, persists it with
// SaveFlat, and measures
//   * load wall time (median) of the mmap LoadFlat,
//   * the RSS delta of the load (sampled before AND after — the flat path
//     should charge almost nothing up front, faulting pages in on demand),
//   * the file size (the space axis of the space<->latency curve),
//   * query latency on the built index (its container on the heap) vs the
//     flat-loaded one (the container mapped) — one representation, so the
//     gap is placement and run-to-run spread; the two alternate which is
//     timed first, since the first of two back-to-back batches reads
//     slower — and
//   * full query-result equivalence between the built and the flat-loaded
//     index, plus scalar-vs-AVX2 posting-list intersection equivalence. Any
//     mismatch hard-fails the bench.
//
// Emits BENCH_load.json (schema-checked by tools/check_bench_json.sh) with
// gauges flat.bytes_mapped, flat.load_micros and flat.used_mmap at the
// default size.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flat_arena.h"
#include "common/memory.h"
#include "common/random.h"
#include "common/simd_intersect.h"
#include "common/timer.h"
#include "core/orp_kw.h"
#include "obs/stats.h"
#include "text/inverted_index.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr uint32_t kDefaultObjects = 65536;
// Timed batches per index; even, so each side is timed first in half.
constexpr int kQueryReps = 10;

struct LoadSample {
  double mmap_ms = 0;
  double mmap_rss_bytes = 0;
  double flat_bytes = 0;
  double built_query_us = 0;
  double flat_query_us = 0;
};

/// One query batch; results compared across index incarnations.
std::vector<std::vector<ObjectId>> RunBatch(
    const OrpKwIndex<2>& index,
    const std::vector<std::pair<Box<2>, std::vector<KeywordId>>>& batch) {
  std::vector<std::vector<ObjectId>> results;
  results.reserve(batch.size());
  for (const auto& [box, kws] : batch) results.push_back(index.Query(box, kws));
  return results;
}

/// Scalar vs AVX2 posting-list intersection must agree exactly (the flat
/// query path runs whichever kernel kAuto resolves to).
void CheckIntersectKernels(const Corpus& corpus, Rng* rng) {
  InvertedIndex inv(corpus);
  for (int trial = 0; trial < 64; ++trial) {
    const auto kws =
        PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, rng);
    std::vector<std::span<const ObjectId>> lists;
    for (KeywordId w : kws) lists.push_back(inv.Postings(w));
    const auto scalar = IntersectSortedLists(lists, IntersectKernel::kScalar);
    const auto simd = IntersectSortedLists(lists, IntersectKernel::kAvx2);
    if (scalar != simd) {
      std::fprintf(stderr,
                   "FATAL: scalar/AVX2 intersection disagree "
                   "(%zu vs %zu results)\n",
                   scalar.size(), simd.size());
      std::exit(1);
    }
  }
}

LoadSample MeasureOne(uint32_t n_objects, bench::JsonReport* report,
                      bool is_default) {
  Rng rng(n_objects * 7 + 3);
  CorpusSpec spec;
  spec.num_objects = n_objects;
  spec.vocab_size = std::max<uint32_t>(64, n_objects / 16);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n_objects, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const OrpKwIndex<2> built(pts, &corpus, opt);

  const std::string flat_path =
      "/tmp/kwsc_bench_load_" + std::to_string(n_objects) + ".v2";
  {
    std::ofstream flat_out(flat_path, std::ios::binary);
    built.SaveFlat(&flat_out);
  }

  LoadSample sample;

  // RSS of the first (cold for this process) load.
  std::shared_ptr<const MmapFile> first_file;
  {
    const bench::RssDeltaProbe rss;
    first_file = MmapFile::Open(flat_path);
    const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(first_file, &corpus);
    sample.mmap_rss_bytes = static_cast<double>(rss.DeltaBytes());
    sample.flat_bytes = static_cast<double>(first_file->size());
  }

  sample.mmap_ms =
      bench::MedianMicros([&] {
        const auto file = MmapFile::Open(flat_path);
        const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(file, &corpus);
        (void)loaded;
      }) /
      1e3;

  // Equivalence: built and flat-loaded must answer every query identically.
  // A mismatch is a correctness bug, not a data point.
  std::vector<std::pair<Box<2>, std::vector<KeywordId>>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.emplace_back(
        GenerateBoxQuery(std::span<const Point<2>>(pts),
                         i % 2 == 0 ? 0.01 : 0.1, &rng),
        PickQueryKeywords(corpus, 2,
                          i % 2 == 0 ? KeywordPick::kFrequent
                                     : KeywordPick::kCooccurring,
                          &rng));
  }
  const auto file = MmapFile::Open(flat_path);
  const OrpKwIndex<2> flat_loaded = OrpKwIndex<2>::LoadFlat(file, &corpus);
  if (RunBatch(flat_loaded, batch) != RunBatch(built, batch)) {
    std::fprintf(stderr, "FATAL: flat-loaded index answers differ (N=%u)\n",
                 n_objects);
    std::exit(1);
  }
  CheckIntersectKernels(corpus, &rng);

  // The latency axis of the space<->latency curve: the same batch on the
  // built (heap container) and the mmap-backed index, each side's median
  // over repetitions that alternate which side runs first.
  const OrpKwIndex<2>* sides[2] = {&built, &flat_loaded};
  std::vector<double> micros[2];
  for (const OrpKwIndex<2>* side : sides) RunBatch(*side, batch);  // Warm-up.
  for (int rep = 0; rep < kQueryReps; ++rep) {
    for (int i = 0; i < 2; ++i) {
      const int side = rep % 2 == 0 ? i : 1 - i;
      WallTimer timer;
      RunBatch(*sides[side], batch);
      micros[side].push_back(timer.ElapsedMicros());
    }
  }
  sample.built_query_us = obs::Median(std::move(micros[0]));
  sample.flat_query_us = obs::Median(std::move(micros[1]));

  if (is_default) {
    report->SetGauge("flat.bytes_mapped", sample.flat_bytes);
    report->SetGauge("flat.load_micros", sample.mmap_ms * 1e3);
    report->SetGauge("flat.used_mmap", file->used_mmap() ? 1.0 : 0.0);
  }

  std::remove(flat_path.c_str());
  return sample;
}

}  // namespace
}  // namespace kwsc

int main(int argc, char** argv) {
  using namespace kwsc;
  bench::PrintHeader(
      "L load path: mmap flat layout",
      "the v2 flat container loads by mapping + pointer fixup only, so load "
      "time and up-front RSS stay small while query answers stay identical");
  bench::JsonReport report("load");

  // Optional sweep cap for CI smoke runs: `bench_load [max_objects]`. The
  // largest size kept becomes the one the gauges are stamped at.
  uint32_t max_objects = kDefaultObjects;
  if (argc > 1) {
    max_objects = static_cast<uint32_t>(std::strtoul(argv[1], nullptr, 10));
  }
  std::vector<uint32_t> sweep;
  for (uint32_t n : {8192u, 16384u, 32768u, kDefaultObjects}) {
    if (n <= max_objects) sweep.push_back(n);
  }
  if (sweep.empty()) sweep.push_back(max_objects);
  const uint32_t default_n = sweep.back();

  std::printf("%10s %12s %14s %12s %12s\n", "N", "mmap(ms)", "mmapRSS",
              "built q(us)", "flat q(us)");
  for (uint32_t n : sweep) {
    const LoadSample s = MeasureOne(n, &report, n == default_n);
    std::printf("%10u %12.2f %14s %12.1f %12.1f\n", n, s.mmap_ms,
                FormatBytes(static_cast<size_t>(s.mmap_rss_bytes)).c_str(),
                s.built_query_us, s.flat_query_us);
    bench::PrintCsv("L",
                    {{"N", static_cast<double>(n)},
                     {"mmap_load_ms", s.mmap_ms},
                     {"mmap_rss_bytes", s.mmap_rss_bytes},
                     {"flat_file_bytes", s.flat_bytes},
                     {"built_query_us", s.built_query_us},
                     {"flat_query_us", s.flat_query_us}},
                    &report);
  }
  std::printf("\nquery equivalence: built == flat-loaded, scalar == AVX2 "
              "(hard-checked)\n");
  bench::EmitJson(&report);
  return 0;
}
