// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment THR — multi-core scaling. The paper's bounds are per-query;
// build-time and batch-throughput scaling across threads are implementation
// properties this bench makes machine-trackable:
//   * build: wall-clock of OrpKwIndex construction at 1/2/4/8 threads, with
//     a byte-identity check of the SaveFlat bytes against the 1-thread build
//     (the determinism contract of the arena-splice parallel build);
//   * query: QPS of the batched engine (core/query_engine.h) over a fixed
//     mixed batch at 1/2/4/8 threads, with per-query latency histograms
//     (p50/p90/p99) and the QueryStats cost accounting exported to
//     BENCH_throughput.json, next to the keyword-signature pass rate.
// Speedups are relative to the 1-thread run; on a machine with fewer cores
// than threads the extra threads cannot help — the `identical` flag must
// hold regardless.
//
// Usage: bench_throughput [num_objects] [num_queries]
// (defaults 65536 / 1024; CI runs a tiny size as a schema smoke test).

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/orp_kw.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};

std::string SaveFlatBytes(const OrpKwIndex<2>& index) {
  std::ostringstream out;
  index.SaveFlat(&out);
  return out.str();
}

/// Over every in-box (object, query) pair of the batch, the share whose
/// 64-bit keyword signature passes (Corpus::MayContainAll) and the share
/// whose document holds every keyword: how much of the verification the
/// signature settles without the binary search. Untimed.
void ReportSignaturePassRate(const Corpus& corpus,
                             std::span<const Point<2>> pts,
                             const std::vector<BatchQuery<Box<2>>>& batch,
                             obs::MetricsRegistry* registry) {
  uint64_t pairs = 0;
  uint64_t signature = 0;
  uint64_t exact = 0;
  for (const BatchQuery<Box<2>>& q : batch) {
    for (ObjectId e = 0; e < pts.size(); ++e) {
      if (!q.region.Contains(pts[e])) continue;
      ++pairs;
      if (corpus.MayContainAll(e, q.keywords)) ++signature;
      if (corpus.ContainsAll(e, q.keywords)) ++exact;
    }
  }
  const double base = pairs > 0 ? static_cast<double>(pairs) : 1.0;
  const double signature_pass = static_cast<double>(signature) / base;
  const double exact_pass = static_cast<double>(exact) / base;
  std::printf("\n-- keyword signature over %llu in-box pairs: %.4f pass, "
              "%.4f match --\n",
              static_cast<unsigned long long>(pairs), signature_pass,
              exact_pass);
  registry->SetGauge("verify.signature_pass", signature_pass);
  registry->SetGauge("verify.exact_pass", exact_pass);
}

void Run(uint32_t num_objects, int num_queries) {
  bench::JsonReport report("throughput");
  obs::MetricsRegistry registry;
  Rng rng(num_objects * 3 + 7);
  CorpusSpec spec;
  spec.num_objects = num_objects;
  spec.vocab_size = std::max<uint32_t>(64, num_objects / 16);
  spec.zipf_skew = 1.0;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts =
      GeneratePoints<2>(num_objects, PointDistribution::kUniform, &rng);
  const double n_weight = static_cast<double>(corpus.total_weight());

  // --- Build scaling ------------------------------------------------------
  {
    // Untimed warm-up: the first build pays allocator and page-cache
    // warm-up that would otherwise be billed to whichever thread count
    // happens to run first.
    FrameworkOptions opt;
    opt.k = 2;
    OrpKwIndex<2> warmup(pts, &corpus, opt);
  }
  std::printf("\n-- build, N=%.0f --\n", n_weight);
  std::printf("%8s %12s %10s %10s\n", "threads", "build(ms)", "speedup",
              "identical");
  std::string sequential_bytes;
  double sequential_ms = 0.0;
  std::optional<OrpKwIndex<2>> query_index;
  for (int threads : kThreadSweep) {
    FrameworkOptions opt;
    opt.k = 2;
    opt.num_threads = threads;
    WallTimer timer;
    OrpKwIndex<2> index(pts, &corpus, opt);
    const double ms = timer.ElapsedMillis();
    const std::string bytes = SaveFlatBytes(index);
    if (threads == 1) {
      sequential_bytes = bytes;
      sequential_ms = ms;
      query_index.emplace(std::move(index));
    }
    const bool identical = bytes == sequential_bytes;
    const double speedup = ms > 0 ? sequential_ms / ms : 0.0;
    std::printf("%8d %12.2f %10.2f %10s\n", threads, ms, speedup,
                identical ? "yes" : "NO");
    bench::PrintCsv("THR-build",
                    {{"N", n_weight},
                     {"threads", double(threads)},
                     {"build_ms", ms},
                     {"speedup", speedup},
                     {"identical", identical ? 1.0 : 0.0}},
                    &report);
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: %d-thread build diverged from sequential build\n",
                   threads);
      std::exit(1);
    }
  }
  registry.SetGauge("build_wall_ms", sequential_ms);

  // --- Batched query scaling ---------------------------------------------
  // Mixed batch: half selective boxes with frequent keywords, half broad
  // boxes with co-occurring keywords (the W1/W2 regimes of bench_orp_kw).
  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < num_queries; ++i) {
    const bool selective = i % 2 == 0;
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          selective ? 0.001 : 0.2, &rng),
         PickQueryKeywords(corpus, 2,
                           selective ? KeywordPick::kFrequent
                                     : KeywordPick::kCooccurring,
                           &rng)});
  }

  std::printf("\n-- batched queries, %d per batch --\n", num_queries);
  std::printf("%8s %12s %12s %10s %12s %10s %10s\n", "threads", "batch(us)",
              "QPS", "speedup", "results", "p50(us)", "p99(us)");
  double single_thread_us = 0.0;
  for (int threads : kThreadSweep) {
    FrameworkOptions engine_opt;
    engine_opt.num_threads = threads;
    QueryEngine<OrpKwIndex<2>> engine(&*query_index, engine_opt, &registry);
    const auto stats_probe = engine.Run(batch);
    const double us = bench::MedianMicros([&] { engine.Run(batch); });
    if (threads == 1) single_thread_us = us;
    const double qps = us > 0 ? num_queries / (us / 1e6) : 0.0;
    const double speedup = us > 0 ? single_thread_us / us : 0.0;
    const double p50_us =
        static_cast<double>(stats_probe.latency.P50()) / 1e3;
    const double p90_us =
        static_cast<double>(stats_probe.latency.P90()) / 1e3;
    const double p99_us =
        static_cast<double>(stats_probe.latency.P99()) / 1e3;
    std::printf("%8d %12.0f %12.0f %10.2f %12llu %10.1f %10.1f\n", threads,
                us, qps, speedup,
                static_cast<unsigned long long>(stats_probe.stats.results),
                p50_us, p99_us);
    bench::PrintCsv("THR-query",
                    {{"N", n_weight},
                     {"threads", double(threads)},
                     {"batch_us", us},
                     {"qps", qps},
                     {"speedup", speedup},
                     {"results", double(stats_probe.stats.results)},
                     {"p50_us", p50_us},
                     {"p90_us", p90_us},
                     {"p99_us", p99_us}},
                    &report);
    report.AddHistogram("query_latency_ns_t" + std::to_string(threads),
                        stats_probe.latency, "ns");
    if (threads == 1) {
      // The cost accounting is thread-count invariant (the engine's
      // determinism contract); export the 1-thread aggregate once.
      report.AddHistogram("query_work_objects", stats_probe.work, "objects");
      obs::AddQueryStatsCounters(stats_probe.stats, "batch_stats",
                                 report.mutable_registry());
    }
  }

  ReportSignaturePassRate(corpus, pts, batch, &registry);
  report.MergeRegistry(registry);
  bench::EmitJson(&report);
}

}  // namespace
}  // namespace kwsc

int main(int argc, char** argv) {
  uint32_t num_objects = 65536;
  int num_queries = 1024;
  if (argc > 1) num_objects = static_cast<uint32_t>(std::atoi(argv[1]));
  if (argc > 2) num_queries = std::atoi(argv[2]);
  if (num_objects < 256 || num_queries < 8) {
    std::fprintf(stderr,
                 "usage: bench_throughput [num_objects >= 256] "
                 "[num_queries >= 8]\n");
    return 2;
  }
  kwsc::bench::PrintHeader(
      "THR build + batched-query thread scaling",
      "parallel build is byte-identical to sequential and faster on "
      "multi-core; batched QPS scales with threads (per-query bounds are "
      "untouched)");
  kwsc::Run(num_objects, num_queries);
  return 0;
}
