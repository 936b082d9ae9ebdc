// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The sharded_topt workload: Coordinator<OrpKwIndex<2>> over 4
// space-partitioned replicas, top-t = 8 with the threshold-selection merge,
// sequential fan-out, one query per request. The serve layer has no load
// path, so replica construction is set-up: input generation, ShardRouter::Plan
// and the Coordinator constructor, plus writing and flushing the corpus and
// points files the replicas are built from. The open reads those files back.

#ifndef KWSC_PERFBENCH_SHARDED_H_
#define KWSC_PERFBENCH_SHARDED_H_

#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/orp_kw.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/coordinator.h"
#include "serve/shard_router.h"
#include "spans.h"

namespace kwsc::perfbench {

using ServeCoordinator = Coordinator<OrpKwIndex<2>>;

constexpr uint32_t kShards = 4;
constexpr uint64_t kTopT = 8;

/// A coordinator with the registry it reports into.
struct Served {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<ServeCoordinator> coordinator;
};

/// The corpus and points read back from their files.
struct LoadedInputs {
  std::unique_ptr<Corpus> corpus;
  std::vector<Point<2>> points;
};

inline uint64_t CandidateCounters(const obs::MetricsRegistry& registry) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    total += registry.CounterValue("serve.shard" + std::to_string(s) +
                                   ".candidates");
  }
  return total;
}

inline void RunSharded(const Args& args, const DatasetSpec& spec,
                       Report* report) {
  SpanLog log(args.trace, kSpanCapacity);
  uint32_t request = 0;
  const std::string corpus_path = args.dir + "/shard_corpus.bin";
  const std::string points_path = args.dir + "/shard_points.bin";

  ServeOptions serve_options;
  serve_options.threads_per_shard = 1;
  serve_options.top_t = kTopT;
  serve_options.selection_merge = true;
  serve_options.parallel_fanout = false;

  // Set-up: generate, plan, build the replicas, write and flush the files.
  std::vector<double> setup_s;
  Dataset data;
  Served served;
  const int64_t setup_start = NowNanos();
  for (int rep = 0; MoreReps(rep, kSetupReps, setup_start); ++rep) {
    const int64_t start = NowNanos();
    Dataset fresh;
    Served fresh_served;
    fresh_served.registry = std::make_unique<obs::MetricsRegistry>();
    {
      ScopedSpan root(&log, kSetup, -1, request++);
      {
        ScopedSpan s(&log, kGenerate, root.handle(), request - 1);
        fresh = Generate(spec, args.seed);
      }
      ShardPlan plan;
      {
        ScopedSpan s(&log, kPlan, root.handle(), request - 1);
        std::vector<double> axis_keys(fresh.points.size());
        for (size_t e = 0; e < axis_keys.size(); ++e) {
          axis_keys[e] = fresh.points[e][0];
        }
        plan = ShardRouter(ShardStrategy::kSpacePartitioned, kShards)
                   .Plan(fresh.corpus, axis_keys);
      }
      {
        ScopedSpan s(&log, kReplicaBuild, root.handle(), request - 1);
        fresh_served.coordinator = std::make_unique<ServeCoordinator>(
            plan, fresh.points, fresh.corpus, IndexOptions(), serve_options,
            fresh_served.registry.get());
      }
      {
        ScopedSpan s(&log, kSaveCorpus, root.handle(), request - 1);
        std::ofstream corpus_out(corpus_path,
                                 std::ios::binary | std::ios::trunc);
        fresh.corpus.Save(&corpus_out);
        corpus_out.close();
        std::ofstream points_out(points_path,
                                 std::ios::binary | std::ios::trunc);
        points_out.write(reinterpret_cast<const char*>(fresh.points.data()),
                         static_cast<std::streamsize>(fresh.points.size() *
                                                      sizeof(Point<2>)));
        points_out.close();
        KWSC_CHECK_MSG(corpus_out.good() && points_out.good(),
                       "writing the shard inputs failed");
      }
      {
        ScopedSpan s(&log, kFlush, root.handle(), request - 1);
        Flush(corpus_path);
        Flush(points_path);
      }
    }
    setup_s.push_back(double(NowNanos() - start) / 1e9);
    served = std::move(fresh_served);
    data = std::move(fresh);
  }
  Fingerprint fingerprint;
  fingerprint.AddDataset(data);
  report->fingerprint = fingerprint.value();

  // Opens: read the flushed corpus and points files back, and check them
  // against the generated inputs. The untraced stream adds one about every
  // few passes.
  std::vector<double> open_ms;
  const auto open_files = [&] {
    const int64_t start = NowNanos();
    LoadedInputs fresh;
    {
      ScopedSpan s(&log, kCorpusLoad, -1, request++);
      std::ifstream corpus_in(corpus_path, std::ios::binary);
      fresh.corpus = std::make_unique<Corpus>(Corpus::Load(&corpus_in));
      fresh.points.resize(fresh.corpus->num_objects());
      std::ifstream points_in(points_path, std::ios::binary);
      points_in.read(reinterpret_cast<char*>(fresh.points.data()),
                     static_cast<std::streamsize>(fresh.points.size() *
                                                  sizeof(Point<2>)));
      KWSC_CHECK_MSG(points_in.good(), "reading %s failed",
                     points_path.c_str());
    }
    open_ms.push_back(double(NowNanos() - start) / 1e6);
    report->Check(fresh.corpus->total_weight() == data.corpus.total_weight() &&
                  fresh.points.size() == data.points.size() &&
                  std::memcmp(fresh.points.data(), data.points.data(),
                              data.points.size() * sizeof(Point<2>)) == 0);
    return fresh;
  };
  LoadedInputs loaded;
  const int64_t open_start = NowNanos();
  for (int rep = 0; MoreReps(rep, kOpenReps, open_start); ++rep) {
    loaded = open_files();
  }

  ServeCoordinator& coordinator = *served.coordinator;
  const size_t num_queries = data.queries.size();
  std::vector<BatchQuery<Box<2>>> batch(num_queries);
  const Reference reference(data);
  std::vector<std::vector<ObjectId>> references(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    batch[i].region = data.queries[i].box;
    batch[i].keywords = data.queries[i].keywords;
    references[i] =
        reference.Answer(data.queries[i], data.points.size(), nullptr);
    if (references[i].size() > kTopT) references[i].resize(kTopT);
  }
  const auto one = [&batch](size_t i) {
    return std::span<const BatchQuery<Box<2>>>(&batch[i], 1);
  };

  // First pass: counts, and the first-pass time after set-up.
  std::vector<ServeCoordinator::Result> results(num_queries);
  const uint64_t candidates_before = CandidateCounters(*served.registry);
  const int64_t first_start = NowNanos();
  for (size_t i = 0; i < num_queries; ++i) results[i] = coordinator.Run(one(i));
  report->layer["common.first_pass_ms"] =
      double(NowNanos() - first_start) / 1e6;
  QueryStats stats;
  MergeByteCounters bytes;
  for (size_t i = 0; i < num_queries; ++i) {
    report->Check(results[i].rows.size() == 1 &&
                  results[i].rows[0] == references[i]);
    MergeQueryStats(results[i].stats, &stats);
    bytes.naive += results[i].bytes.naive;
    bytes.selection += results[i].bytes.selection;
    bytes.selection_rounds += results[i].bytes.selection_rounds;
  }
  const uint64_t candidates =
      CandidateCounters(*served.registry) - candidates_before;
  const double q = static_cast<double>(num_queries);
  report->Count("queries", num_queries);
  ReportQueryStats(stats, num_queries, report);
  report->Count("bytes.shipped", bytes.selection);
  report->Count("bytes.naive", bytes.naive);
  report->Count("merge_rounds", bytes.selection_rounds);
  report->Count("candidates", candidates);
  report->layer["serve.bytes_shipped_per_query"] = double(bytes.selection) / q;
  report->layer["serve.bytes_naive_per_query"] = double(bytes.naive) / q;
  report->layer["serve.merge_rounds_per_query"] =
      double(bytes.selection_rounds) / q;
  report->layer["serve.candidates_per_query"] = double(candidates) / q;
  RunVerifyProbe(data, *loaded.corpus, 5, &log, &request, report);

  uint64_t index_bytes = 0;
  uint64_t corpus_bytes = 0;
  for (size_t s = 0; s < coordinator.num_shards(); ++s) {
    index_bytes += coordinator.replica(s).index().MemoryBytes();
    corpus_bytes += coordinator.replica(s).index().corpus().MemoryBytes();
  }
  const double n = static_cast<double>(data.corpus.total_weight());
  report->Count("objects", data.corpus.num_objects());
  report->Count("n", data.corpus.total_weight());
  report->Count("bytes.index_memory", index_bytes);
  report->Count("bytes.corpus_memory", corpus_bytes);

  const auto check_results = [&] {
    for (size_t i = 0; i < num_queries; ++i) {
      report->Check(results[i].rows.size() == 1 &&
                    results[i].rows[0] == references[i]);
    }
  };
  std::vector<double> latencies;
  int64_t next_open = NowNanos();
  const auto pass = [&](bool traced) {
    if (!args.trace && NowNanos() >= next_open) {
      open_files();
      next_open = NowNanos() +
                  kReopenEvery * static_cast<int64_t>(open_ms.back() * 1e6);
    }
    for (auto& result : results) result = ServeCoordinator::Result();
    const int64_t pass_start = NowNanos();
    for (size_t i = 0; i < num_queries; ++i) {
      const int32_t span =
          traced ? log.Begin(kCoordinatorRun, -1, request++) : -1;
      const int64_t t0 = NowNanos();
      results[i] = coordinator.Run(one(i));
      latencies.push_back(double(NowNanos() - t0) / 1e3);
      log.End(span);
    }
    const double rate =
        double(num_queries) / (double(NowNanos() - pass_start) / 1e9);
    check_results();
    return rate;
  };
  const auto untraced_pass = [&] { return pass(false); };

  if (!args.trace) {
    ReportEndToEnd(setup_s, open_ms, latencies, num_queries,
                   RunPasses(args.seconds, untraced_pass),
                   double(index_bytes + corpus_bytes) / n, report);
    return;
  }

  std::vector<double> shard_us;
  std::vector<double> merge_us;
  std::vector<double> max_share;
  const auto rates = RunAlternating(
      args.seconds, untraced_pass,
      [&] {
        const double rate = pass(true);
        for (const ServeCoordinator::Result& result : results) {
          double sum = 0.0;
          double max = 0.0;
          for (double wall : result.shard_wall_micros) {
            sum += wall;
            max = std::max(max, wall);
          }
          shard_us.push_back(sum);
          merge_us.push_back(result.merge_micros);
          max_share.push_back(sum > 0 ? max / sum : 0.0);
        }
        return rate;
      },
      [&] { return log.HasRoom(num_queries); });
  const auto median_of = [&log](SpanName name, double scale) {
    return Median(Scaled(log.SelfNanosOf(name), scale));
  };
  report->latency_samples = shard_us.size();
  report->requests = num_queries;
  report->layer["text.corpus_load_ms"] = median_of(kCorpusLoad, 1e-6);
  report->layer["serve.plan_ms"] = median_of(kPlan, 1e-6);
  report->layer["serve.replica_build_s"] = median_of(kReplicaBuild, 1e-9);
  report->layer["serve.shard_p50_us"] = Quantile(shard_us, 0.50);
  report->layer["serve.merge_p50_us"] = Quantile(merge_us, 0.50);
  report->layer["serve.shard_max_share"] = Median(max_share);
  report->layer["text.corpus_bytes_per_n"] = double(corpus_bytes) / n;
  report->layer["core.index_bytes_per_n"] = double(index_bytes) / n;
  report->layer["trace.overhead"] = TraceOverhead(rates);
  KWSC_CHECK_MSG(log.Write(args.dir + "/spans-" + args.workload + ".tsv"),
                 "cannot write the span log");
}

}  // namespace kwsc::perfbench

#endif  // KWSC_PERFBENCH_SHARDED_H_
