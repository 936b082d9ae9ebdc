// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment U — the update path (core/dynamic_index.h, DESIGN.md §7).
// Three machine-trackable claims:
//   * throughput: sustained mixed insert/delete/query traffic through the
//     batch-dynamic layer beats the rebuild-from-scratch baseline (rebuild
//     the static index after every update batch) on the same stream — the
//     O(log N) amortized-carry advantage of the logarithmic method.
//   * concurrency: with carries on a background merge pool, queries keep
//     running against epoch snapshots while levels rebuild; the p99 query
//     latency during merges stays within a bounded ratio of the quiescent
//     p99 (latency histograms for both regimes ship in the JSON report).
//   * exactness: dynamic answers are identical to the freshly rebuilt
//     static index over the live set at every batch — the bench hard-fails
//     on divergence, mirroring bench_shard's determinism gate.
//
// Usage: bench_update [num_objects] [batch_size] [queries_per_batch]
// (defaults 32768 / 1024 / 4; CI runs a tiny size as a schema smoke test).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "core/query_engine.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

struct UpdateStream {
  std::vector<Point<2>> points;            // Arrival order, global id = index.
  std::vector<Document> docs;              // Parallel to points.
  std::vector<std::vector<ObjectId>> deletes;  // Per batch, after its inserts.
  std::vector<std::vector<BatchQuery<Box<2>>>> queries;  // Per batch.
};

/// Pre-generates the whole mixed stream so the dynamic path and the rebuild
/// baseline replay byte-identical traffic: per batch, `batch` inserts, then
/// ~batch/8 deletes of random still-live ids, then `queries_per_batch`
/// cooccurring-keyword box queries.
UpdateStream MakeStream(uint32_t num_objects, uint32_t batch,
                        int queries_per_batch, Rng* rng) {
  UpdateStream stream;
  CorpusSpec spec;
  spec.num_objects = num_objects;
  spec.vocab_size = 128;
  spec.zipf_skew = 1.0;
  const Corpus corpus = GenerateCorpus(spec, rng);
  stream.points =
      GeneratePoints<2>(num_objects, PointDistribution::kUniform, rng);
  stream.docs.reserve(num_objects);
  for (ObjectId e = 0; e < num_objects; ++e) {
    stream.docs.push_back(corpus.doc(e));
  }
  std::vector<ObjectId> live;
  const uint32_t num_batches = (num_objects + batch - 1) / batch;
  for (uint32_t b = 0; b < num_batches; ++b) {
    const uint32_t begin = b * batch;
    const uint32_t end = std::min(num_objects, begin + batch);
    for (ObjectId e = begin; e < end; ++e) live.push_back(e);
    std::vector<ObjectId> doomed;
    for (uint32_t i = 0; i < (end - begin) / 8 && !live.empty(); ++i) {
      const size_t pick = rng->NextBounded(live.size());
      doomed.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    std::sort(doomed.begin(), doomed.end());
    stream.deletes.push_back(std::move(doomed));
    std::vector<BatchQuery<Box<2>>> qs;
    for (int q = 0; q < queries_per_batch; ++q) {
      qs.push_back({GenerateBoxQuery(std::span<const Point<2>>(stream.points),
                                     rng->UniformDouble(0.1, 0.5), rng),
                    PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring,
                                      rng)});
    }
    stream.queries.push_back(std::move(qs));
  }
  return stream;
}

std::vector<ObjectId> SortedRow(std::vector<ObjectId> row) {
  std::sort(row.begin(), row.end());
  return row;
}

void Run(uint32_t num_objects, uint32_t batch, int queries_per_batch) {
  bench::JsonReport report("update");
  obs::MetricsRegistry registry;
  Rng rng(num_objects * 7 + 13);
  const UpdateStream stream =
      MakeStream(num_objects, batch, queries_per_batch, &rng);
  const size_t num_batches = stream.deletes.size();
  FrameworkOptions opt;
  opt.k = 2;

  uint64_t total_inserts = 0;
  uint64_t total_deletes = 0;
  uint64_t total_queries = 0;

  // ---- Dynamic path: one index absorbs the whole stream. Synchronous
  // carries (no pool) so every carry's cost lands inside the measured wall.
  std::vector<std::vector<ObjectId>> dynamic_rows;
  WallTimer dynamic_timer;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/256);
  for (size_t b = 0; b < num_batches; ++b) {
    const uint32_t begin = static_cast<uint32_t>(b * batch);
    const uint32_t end =
        std::min(num_objects, static_cast<uint32_t>(begin + batch));
    dynamic.InsertBatch(
        std::span<const Point<2>>(stream.points).subspan(begin, end - begin),
        {stream.docs.begin() + begin, stream.docs.begin() + end});
    dynamic.DeleteBatch(stream.deletes[b]);
    total_inserts += end - begin;
    total_deletes += stream.deletes[b].size();
    for (const auto& q : stream.queries[b]) {
      dynamic_rows.push_back(SortedRow(dynamic.Query(q.region, q.keywords)));
      ++total_queries;
    }
  }
  const double dynamic_us = dynamic_timer.ElapsedMicros();

  // ---- Rebuild baseline: after every batch, build a fresh static index
  // over the live set and answer the same queries (ids translated back to
  // global so the rows are comparable). This is what "just rebuild" costs.
  std::vector<bool> live(num_objects, false);
  size_t checked = 0;
  bool identical = true;
  WallTimer rebuild_timer;
  for (size_t b = 0; b < num_batches; ++b) {
    const uint32_t begin = static_cast<uint32_t>(b * batch);
    const uint32_t end =
        std::min(num_objects, static_cast<uint32_t>(begin + batch));
    for (ObjectId e = begin; e < end; ++e) live[e] = true;
    for (ObjectId e : stream.deletes[b]) live[e] = false;
    std::vector<Point<2>> live_points;
    std::vector<Document> live_docs;
    std::vector<ObjectId> live_ids;
    for (ObjectId e = 0; e < num_objects; ++e) {
      if (!live[e]) continue;
      live_points.push_back(stream.points[e]);
      live_docs.push_back(stream.docs[e]);
      live_ids.push_back(e);
    }
    const Corpus corpus(live_docs);
    const OrpKwIndex<2> fresh(live_points, &corpus, opt);
    for (const auto& q : stream.queries[b]) {
      std::vector<ObjectId> row = fresh.Query(q.region, q.keywords);
      for (ObjectId& id : row) id = live_ids[id];
      identical = identical && SortedRow(std::move(row)) ==
                                   dynamic_rows[checked];
      ++checked;
    }
  }
  const double rebuild_us = rebuild_timer.ElapsedMicros();

  const double total_ops =
      static_cast<double>(total_inserts + total_deletes + total_queries);
  const double dynamic_ops_per_s = total_ops / (dynamic_us / 1e6);
  const double rebuild_ops_per_s = total_ops / (rebuild_us / 1e6);
  const double speedup = rebuild_us / dynamic_us;

  std::printf("\n-- mixed stream: %llu inserts, %llu deletes, %llu queries "
              "in %zu batches --\n",
              static_cast<unsigned long long>(total_inserts),
              static_cast<unsigned long long>(total_deletes),
              static_cast<unsigned long long>(total_queries), num_batches);
  std::printf("%12s %14s %14s %10s %10s\n", "path", "wall(us)", "ops/s",
              "speedup", "identical");
  std::printf("%12s %14.0f %14.0f %10s %10s\n", "dynamic", dynamic_us,
              dynamic_ops_per_s, "-", identical ? "yes" : "NO");
  std::printf("%12s %14.0f %14.0f %10.2f %10s\n", "rebuild", rebuild_us,
              rebuild_ops_per_s, speedup, "-");
  bench::PrintCsv("U-throughput",
                  {{"N", double(num_objects)},
                   {"batch", double(batch)},
                   {"inserts", double(total_inserts)},
                   {"deletes", double(total_deletes)},
                   {"queries", double(total_queries)},
                   {"dynamic_us", dynamic_us},
                   {"rebuild_us", rebuild_us},
                   {"dynamic_ops_per_s", dynamic_ops_per_s},
                   {"rebuild_ops_per_s", rebuild_ops_per_s},
                   {"speedup_vs_rebuild", speedup},
                   {"identical", identical ? 1.0 : 0.0}},
                  &report);
  if (!identical) {
    std::fprintf(stderr, "FATAL: dynamic rows diverged from the "
                         "rebuild-from-scratch baseline\n");
    std::exit(1);
  }
  if (speedup <= 1.0) {
    std::fprintf(stderr,
                 "FATAL: dynamic path (%.0f us) did not beat the rebuild "
                 "baseline (%.0f us)\n",
                 dynamic_us, rebuild_us);
    std::exit(1);
  }
  registry.AddCounter("update.inserts", total_inserts);
  registry.AddCounter("update.deletes", total_deletes);
  registry.AddCounter("update.queries", total_queries);

  // ---- Background merges: quiescent vs during-merge query latency. The
  // same index state, carries kicked onto a pool; queries run against epoch
  // snapshots the whole time, and the bench records a latency histogram for
  // each regime.
  ThreadPool pool(2);
  DynamicIndex<OrpKwIndex<2>> concurrent(opt, /*buffer_capacity=*/batch, &pool);
  concurrent.InsertBatch(stream.points, stream.docs);
  concurrent.WaitQuiescent();

  // One query pool, reused round-robin in both regimes.
  std::vector<BatchQuery<Box<2>>> probes;
  for (const auto& qs : stream.queries) {
    probes.insert(probes.end(), qs.begin(), qs.end());
  }
  obs::Histogram quiescent;
  constexpr size_t kSamples = 400;
  for (size_t i = 0; i < kSamples; ++i) {
    const auto& q = probes[i % probes.size()];
    WallTimer timer;
    const auto row = concurrent.Query(q.region, q.keywords);
    quiescent.RecordMicros(timer.ElapsedMicros());
    if (row.size() > stream.points.size()) std::abort();  // Keep `row` live.
  }

  obs::Histogram during_merge;
  size_t merge_samples = 0;
  size_t kicks = 0;
  Rng merge_rng(num_objects * 11 + 7);
  while (merge_samples < kSamples && kicks < 64) {
    // Kick a carry chain: a full buffer of fresh objects.
    std::vector<Point<2>> extra_points;
    std::vector<Document> extra_docs;
    for (uint32_t i = 0; i < batch; ++i) {
      extra_points.push_back(
          {{merge_rng.NextDouble(), merge_rng.NextDouble()}});
      extra_docs.push_back(
          stream.docs[merge_rng.NextBounded(stream.docs.size())]);
    }
    concurrent.InsertBatch(extra_points, std::move(extra_docs));
    ++kicks;
    while (concurrent.MergeInFlight() && merge_samples < kSamples) {
      const auto& q = probes[merge_samples % probes.size()];
      WallTimer timer;
      const auto row = concurrent.Query(q.region, q.keywords);
      const double us = timer.ElapsedMicros();
      // Only count the sample if the merge was still running when the
      // query finished — otherwise part of it ran quiescent.
      if (concurrent.MergeInFlight()) {
        during_merge.RecordMicros(us);
        ++merge_samples;
      }
      if (row.size() > stream.points.size() + batch * kicks) std::abort();
    }
    concurrent.WaitQuiescent();
  }
  if (merge_samples == 0) {
    std::fprintf(stderr,
                 "FATAL: no query completed while a merge was in flight — "
                 "queries are not proceeding during background carries\n");
    std::exit(1);
  }
  const double p99_quiescent_us = quiescent.P99() / 1e3;
  const double p99_merge_us = during_merge.P99() / 1e3;
  const double p99_ratio =
      p99_merge_us / std::max(p99_quiescent_us, 1e-3);
  std::printf("\n-- query latency, quiescent vs during background merge "
              "(%zu + %zu samples, %zu carry kicks) --\n",
              kSamples, merge_samples, kicks);
  std::printf("%12s %12s %12s %12s\n", "regime", "p50(us)", "p99(us)",
              "ratio");
  std::printf("%12s %12.1f %12.1f %12s\n", "quiescent", quiescent.P50() / 1e3,
              p99_quiescent_us, "-");
  std::printf("%12s %12.1f %12.1f %12.2f\n", "during-merge",
              during_merge.P50() / 1e3, p99_merge_us, p99_ratio);
  bench::PrintCsv("U-merge-latency",
                  {{"N", double(num_objects)},
                   {"merge_samples", double(merge_samples)},
                   {"p99_quiescent_us", p99_quiescent_us},
                   {"p99_merge_us", p99_merge_us},
                   {"p99_ratio", p99_ratio}},
                  &report);
  report.AddHistogram("update.query.quiescent", quiescent);
  report.AddHistogram("update.query.during_merge", during_merge);
  report.SetGauge("speedup_vs_rebuild", speedup);
  report.SetGauge("p99_merge_ratio", p99_ratio);
  report.MergeRegistry(registry);
  bench::EmitJson(&report);
}

}  // namespace
}  // namespace kwsc

int main(int argc, char** argv) {
  uint32_t num_objects = 32768;
  uint32_t batch = 1024;
  int queries_per_batch = 4;
  if (argc > 1) num_objects = static_cast<uint32_t>(std::atoi(argv[1]));
  if (argc > 2) batch = static_cast<uint32_t>(std::atoi(argv[2]));
  if (argc > 3) queries_per_batch = std::atoi(argv[3]);
  if (num_objects < 512 || batch < 16 || batch > num_objects ||
      queries_per_batch < 1) {
    std::fprintf(stderr,
                 "usage: bench_update [num_objects >= 512] "
                 "[16 <= batch <= num_objects] [queries_per_batch >= 1]\n");
    return 2;
  }
  kwsc::bench::PrintHeader(
      "U update path: batch-dynamic vs rebuild-from-scratch",
      "mixed insert/delete/query throughput beats rebuilding the static "
      "index per batch; queries keep running during background merges with "
      "bounded p99 inflation; dynamic answers identical to a fresh build");
  kwsc::Run(num_objects, batch, queries_per_batch);
  return 0;
}
