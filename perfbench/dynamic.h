// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The dynamic_mixed workload: DynamicIndex<OrpKwIndex<2>> with a 256-object
// buffer and no merge pool. Set-up generates the inputs, preloads the index
// with one InsertBatch, writes a KWDY checkpoint and flushes it. Every
// sweep opens the checkpoint (DynamicIndex::LoadCheckpoint, the dynamic
// layer's load path) and replays the same rounds of InsertBatch, DeleteBatch
// and queries, so every sweep starts from one state, does the same work and
// gets the same answers; the brute-force references are computed once.

#ifndef KWSC_PERFBENCH_DYNAMIC_H_
#define KWSC_PERFBENCH_DYNAMIC_H_

#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "harness.h"
#include "spans.h"

namespace kwsc::perfbench {

using DynamicOrp = DynamicIndex<OrpKwIndex<2>>;

constexpr uint32_t kPreloadObjects = 65536;
constexpr size_t kDynamicBuffer = 256;
constexpr uint32_t kInsertBatch = 1024;
constexpr uint32_t kDeleteBatch = kInsertBatch / 8;
constexpr int kRounds = 16;
constexpr int kQueriesPerRound = 256;
constexpr uint32_t kDynamicObjects = kPreloadObjects + kRounds * kInsertBatch;

/// The first id round `r` inserts (ids are dense in insertion order).
inline ObjectId RoundBase(int r) {
  return kPreloadObjects + static_cast<ObjectId>(r) * kInsertBatch;
}

inline DatasetSpec DynamicSpec() {
  DatasetSpec spec;
  spec.objects = kDynamicObjects;
  spec.vocab = kPreloadObjects / 16;
  spec.queries = size_t{kRounds} * kQueriesPerRound;
  spec.min_area = 0.05;
  spec.max_area = 0.30;
  spec.pick = KeywordPick::kCooccurring;
  return spec;
}

/// Each round's delete batch: kDeleteBatch ids drawn uniformly from the
/// objects live after that round's insert. Part of the generated inputs.
inline std::vector<std::vector<ObjectId>> PlanDeletes(uint64_t seed) {
  Rng rng(seed ^ 0x5deece66dULL);
  std::vector<ObjectId> live(kPreloadObjects);
  for (ObjectId e = 0; e < kPreloadObjects; ++e) live[e] = e;
  std::vector<std::vector<ObjectId>> deletes(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const ObjectId base = RoundBase(r);
    for (ObjectId e = base; e < base + kInsertBatch; ++e) live.push_back(e);
    for (uint32_t j = 0; j < kDeleteBatch; ++j) {
      const size_t pick = rng.NextBounded(live.size());
      deletes[r].push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return deletes;
}

inline void RunDynamic(const Args& args, Report* report) {
  SpanLog log(args.trace, kSpanCapacity);
  uint32_t request = 0;
  const std::string checkpoint_path = args.dir + "/dynamic.kwdy";
  const DatasetSpec spec = DynamicSpec();
  const auto documents = [](const Dataset& d, ObjectId first, uint32_t count) {
    std::vector<Document> docs;
    docs.reserve(count);
    for (ObjectId e = first; e < first + count; ++e) {
      docs.push_back(d.corpus.doc(e));
    }
    return docs;
  };

  // Set-up: generate, preload, checkpoint, flush.
  std::vector<double> setup_s;
  Dataset data;
  std::vector<std::vector<ObjectId>> deletes;
  const int64_t setup_start = NowNanos();
  for (int rep = 0; MoreReps(rep, kSetupReps, setup_start); ++rep) {
    const int64_t start = NowNanos();
    Dataset fresh;
    std::unique_ptr<DynamicOrp> preloaded;
    {
      ScopedSpan root(&log, kSetup, -1, request++);
      std::vector<Document> docs;
      {
        ScopedSpan s(&log, kGenerate, root.handle(), request - 1);
        fresh = Generate(spec, args.seed);
        deletes = PlanDeletes(args.seed);
        docs = documents(fresh, 0, kPreloadObjects);
      }
      {
        ScopedSpan s(&log, kPreload, root.handle(), request - 1);
        preloaded =
            std::make_unique<DynamicOrp>(IndexOptions(), kDynamicBuffer);
        preloaded->InsertBatch(
            std::span<const Point<2>>(fresh.points.data(), kPreloadObjects),
            std::move(docs));
      }
      {
        ScopedSpan s(&log, kCheckpointSave, root.handle(), request - 1);
        std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
        preloaded->SaveCheckpoint(&out);
        out.close();
        KWSC_CHECK_MSG(out.good(), "writing %s failed",
                       checkpoint_path.c_str());
      }
      {
        ScopedSpan s(&log, kFlush, root.handle(), request - 1);
        Flush(checkpoint_path);
      }
    }
    setup_s.push_back(double(NowNanos() - start) / 1e9);
    preloaded.reset();
    data = std::move(fresh);
  }
  Fingerprint fingerprint;
  fingerprint.AddDataset(data);
  for (const auto& batch : deletes) fingerprint.AddAll<ObjectId>(batch);
  report->fingerprint = fingerprint.value();

  // References: replay the stream on a model of the live set.
  const Reference reference(data);
  std::vector<std::vector<ObjectId>> references(data.queries.size());
  std::vector<uint8_t> alive(kDynamicObjects, 0);
  std::fill(alive.begin(), alive.begin() + kPreloadObjects, 1);
  for (int r = 0; r < kRounds; ++r) {
    const ObjectId base = RoundBase(r);
    std::fill(alive.begin() + base, alive.begin() + base + kInsertBatch, 1);
    for (ObjectId e : deletes[r]) alive[e] = 0;
    for (int j = 0; j < kQueriesPerRound; ++j) {
      const size_t q = size_t(r) * kQueriesPerRound + size_t(j);
      references[q] =
          reference.Answer(data.queries[q], base + kInsertBatch, &alive);
    }
  }
  uint64_t live_weight = 0;
  for (ObjectId e = 0; e < kDynamicObjects; ++e) {
    if (alive[e] != 0) live_weight += data.corpus.doc(e).size();
  }

  // One sweep: open the checkpoint, then the rounds. `traced` wraps every
  // call in a span; `stats`, when set, collects the counts.
  std::vector<double> open_ms;
  std::vector<double> latencies;
  std::vector<std::vector<ObjectId>> answers(data.queries.size());
  uint64_t ops_per_sweep = 0;
  double sweep_seconds = 0.0;
  std::unique_ptr<DynamicOrp> index;
  const auto sweep = [&](bool traced, QueryStats* stats, uint64_t* levels,
                         double* dead_share) {
    index.reset();
    for (auto& answer : answers) std::vector<ObjectId>().swap(answer);
    {
      const int32_t span =
          traced ? log.Begin(kCheckpointLoad, -1, request++) : -1;
      const int64_t start = NowNanos();
      std::ifstream in(checkpoint_path, std::ios::binary);
      index = DynamicOrp::LoadCheckpoint(&in);
      open_ms.push_back(double(NowNanos() - start) / 1e6);
      log.End(span);
    }
    std::vector<std::vector<Document>> batches(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      batches[r] = documents(data, RoundBase(r), kInsertBatch);
    }
    // Times one call; query latencies also go to `latencies`.
    const auto timed = [&](SpanName name, auto&& call) {
      const int32_t span = traced ? log.Begin(name, -1, request++) : -1;
      const int64_t t0 = NowNanos();
      call();
      if (name == kDynamicQuery) {
        latencies.push_back(double(NowNanos() - t0) / 1e3);
      }
      log.End(span);
    };
    uint64_t ops = 0;
    const int64_t sweep_start = NowNanos();
    for (int r = 0; r < kRounds; ++r) {
      const ObjectId base = RoundBase(r);
      ObjectId first = 0;
      timed(kDynamicInsert, [&] {
        first = index->InsertBatch(
            std::span<const Point<2>>(data.points.data() + base, kInsertBatch),
            std::move(batches[r]));
      });
      report->Check(first == base);
      size_t deleted = 0;
      timed(kDynamicDelete, [&] { deleted = index->DeleteBatch(deletes[r]); });
      report->Check(deleted == kDeleteBatch);
      ops += kInsertBatch + kDeleteBatch;
      for (int j = 0; j < kQueriesPerRound; ++j) {
        const size_t q = size_t(r) * kQueriesPerRound + size_t(j);
        const Request& query = data.queries[q];
        timed(kDynamicQuery, [&] {
          answers[q] = index->Query(query.box, query.keywords, stats);
        });
        if (levels != nullptr) {
          *levels += index->ActiveLevels();
          *dead_share +=
              double(index->num_objects() - index->live_objects()) /
              double(index->num_objects());
        }
        ++ops;
      }
    }
    sweep_seconds = double(NowNanos() - sweep_start) / 1e9;
    for (size_t q = 0; q < answers.size(); ++q) {
      report->Check(SameIds(answers[q], references[q]));
    }
    ops_per_sweep = ops;
    return double(ops) / sweep_seconds;
  };

  // First sweep: counts, and the first-pass time after an open.
  QueryStats stats;
  uint64_t levels = 0;
  double dead_share = 0.0;
  sweep(false, &stats, &levels, &dead_share);
  report->layer["common.first_pass_ms"] = sweep_seconds * 1e3;
  const size_t num_queries = data.queries.size();
  report->Count("queries", num_queries);
  report->Count("ops_per_sweep", ops_per_sweep);
  report->Count("levels", levels);
  ReportQueryStats(stats, num_queries, report);
  report->layer["core.dynamic_levels_per_query"] =
      double(levels) / double(num_queries);
  report->layer["core.dynamic_dead_share"] = dead_share / double(num_queries);
  const uint64_t memory_bytes = index->MemoryBytes();
  const uint64_t checkpoint_bytes = FileBytes(checkpoint_path);
  report->Count("objects", kDynamicObjects);
  report->Count("n", live_weight);
  report->Count("bytes.memory", memory_bytes);
  report->Count("bytes.checkpoint_file", checkpoint_bytes);
  RunVerifyProbe(data, data.corpus, 5, &log, &request, report);
  open_ms.clear();
  latencies.clear();

  const auto untraced_sweep = [&] {
    return sweep(false, nullptr, nullptr, nullptr);
  };
  const double bytes_per_n = double(memory_bytes) / double(live_weight);

  if (!args.trace) {
    ReportEndToEnd(setup_s, open_ms, latencies, num_queries,
                   RunPasses(args.seconds, untraced_sweep), bytes_per_n,
                   report);
    return;
  }

  const size_t spans_per_sweep = 1 + size_t{kRounds} * (2 + kQueriesPerRound);
  const auto rates = RunAlternating(
      args.seconds, untraced_sweep,
      [&] { return sweep(true, nullptr, nullptr, nullptr); },
      [&] { return log.HasRoom(spans_per_sweep); });
  const auto median_of = [&log](SpanName name, double scale) {
    return Median(Scaled(log.SelfNanosOf(name), scale));
  };
  const std::vector<double> insert_spans_us =
      Scaled(log.SelfNanosOf(kDynamicInsert), 1e-3);
  report->latency_samples = log.SelfNanosOf(kDynamicQuery).size();
  report->requests = num_queries;
  report->layer["core.dynamic_preload_s"] = median_of(kPreload, 1e-9);
  report->layer["core.dynamic_insert_p50_us"] = Quantile(insert_spans_us, 0.50);
  report->layer["core.dynamic_insert_p90_us"] = Quantile(insert_spans_us, 0.90);
  report->layer["core.dynamic_delete_p50_us"] = median_of(kDynamicDelete, 1e-3);
  report->layer["core.dynamic_bytes_per_n"] = bytes_per_n;
  report->layer["trace.overhead"] = TraceOverhead(rates);
  KWSC_CHECK_MSG(log.Write(args.dir + "/spans-" + args.workload + ".tsv"),
                 "cannot write the span log");
}

}  // namespace kwsc::perfbench

#endif  // KWSC_PERFBENCH_DYNAMIC_H_
