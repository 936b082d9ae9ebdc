// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The two static workloads (orp_broad, orp_selective): ORP-KW saved as a
// corpus file and a flat index file, flushed, opened again from those
// files, then queried. Set-up is input generation plus build, save and
// flush; the open is Corpus::Load + MmapFile::Open + OrpKwIndex::LoadFlat.

#ifndef KWSC_PERFBENCH_ORP_H_
#define KWSC_PERFBENCH_ORP_H_

#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_arena.h"
#include "core/orp_kw.h"
#include "harness.h"
#include "spans.h"

namespace kwsc::perfbench {

/// An index opened from files, with the corpus it points into.
struct OpenedOrp {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<OrpKwIndex<2>> index;
};

inline void RunOrp(const Args& args, const DatasetSpec& spec,
                   Report* report) {
  SpanLog log(args.trace, kSpanCapacity);
  uint32_t request = 0;
  const std::string corpus_path = args.dir + "/corpus.bin";
  const std::string index_path = args.dir + "/index.kwo2";

  // Set-up: generate, build, save, flush.
  std::vector<double> setup_s;
  Dataset data;
  const int64_t setup_start = NowNanos();
  for (int rep = 0; MoreReps(rep, kSetupReps, setup_start); ++rep) {
    const int64_t start = NowNanos();
    Dataset fresh;
    std::unique_ptr<OrpKwIndex<2>> built;
    {
      ScopedSpan root(&log, kSetup, -1, request++);
      {
        ScopedSpan s(&log, kGenerate, root.handle(), request - 1);
        fresh = Generate(spec, args.seed);
      }
      {
        ScopedSpan s(&log, kBuild, root.handle(), request - 1);
        built = std::make_unique<OrpKwIndex<2>>(fresh.points, &fresh.corpus,
                                                IndexOptions());
      }
      {
        ScopedSpan s(&log, kSaveCorpus, root.handle(), request - 1);
        std::ofstream out(corpus_path, std::ios::binary | std::ios::trunc);
        fresh.corpus.Save(&out);
        out.close();
        KWSC_CHECK_MSG(out.good(), "writing %s failed", corpus_path.c_str());
      }
      {
        ScopedSpan s(&log, kSaveFlat, root.handle(), request - 1);
        std::ofstream out(index_path, std::ios::binary | std::ios::trunc);
        built->SaveFlat(&out);
        out.close();
        KWSC_CHECK_MSG(out.good(), "writing %s failed", index_path.c_str());
      }
      {
        ScopedSpan s(&log, kFlush, root.handle(), request - 1);
        Flush(corpus_path);
        Flush(index_path);
      }
    }
    setup_s.push_back(double(NowNanos() - start) / 1e9);
    built.reset();
    data = std::move(fresh);
  }
  Fingerprint fingerprint;
  fingerprint.AddDataset(data);
  report->fingerprint = fingerprint.value();

  // Opens of the flushed files: the last of the first few serves the
  // queries; the untraced stream adds one about every second.
  std::vector<double> open_ms;
  const auto open_files = [&] {
    const int64_t start = NowNanos();
    OpenedOrp fresh;
    {
      ScopedSpan root(&log, kOpen, -1, request++);
      {
        ScopedSpan s(&log, kCorpusLoad, root.handle(), request - 1);
        std::ifstream in(corpus_path, std::ios::binary);
        fresh.corpus = std::make_unique<Corpus>(Corpus::Load(&in));
      }
      {
        ScopedSpan s(&log, kFlatOpen, root.handle(), request - 1);
        std::shared_ptr<const MmapFile> file = MmapFile::Open(index_path);
        KWSC_CHECK_MSG(file != nullptr, "cannot map %s", index_path.c_str());
        fresh.index = std::make_unique<OrpKwIndex<2>>(
            OrpKwIndex<2>::LoadFlat(std::move(file), fresh.corpus.get()));
      }
    }
    open_ms.push_back(double(NowNanos() - start) / 1e6);
    return fresh;
  };
  OpenedOrp opened;
  const int64_t open_start = NowNanos();
  for (int rep = 0; MoreReps(rep, kOpenReps, open_start); ++rep) {
    opened = open_files();
  }
  const OrpKwIndex<2>& index = *opened.index;
  const std::vector<Request>& queries = data.queries;
  const size_t num_queries = queries.size();

  const Reference reference(data);
  std::vector<std::vector<ObjectId>> references(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    references[i] = reference.Answer(queries[i], data.points.size(), nullptr);
  }

  // First pass after the open: lazily mapped pages fault in here. It also
  // collects the QueryStats counts, so it is not part of the timed stream.
  std::vector<std::vector<ObjectId>> answers(num_queries);
  QueryStats stats;
  const int64_t first_start = NowNanos();
  for (size_t i = 0; i < num_queries; ++i) {
    answers[i] = index.Query(queries[i].box, queries[i].keywords, &stats);
  }
  report->layer["common.first_pass_ms"] =
      double(NowNanos() - first_start) / 1e6;
  for (size_t i = 0; i < num_queries; ++i) {
    report->Check(SameIds(answers[i], references[i]));
  }
  report->Count("queries", num_queries);
  ReportQueryStats(stats, num_queries, report);
  RunVerifyProbe(data, *opened.corpus, 5, &log, &request, report);

  const uint64_t corpus_bytes = FileBytes(corpus_path);
  const uint64_t index_bytes = FileBytes(index_path);
  const double n = static_cast<double>(data.corpus.total_weight());
  report->Count("objects", data.corpus.num_objects());
  report->Count("n", data.corpus.total_weight());
  report->Count("bytes.corpus_file", corpus_bytes);
  report->Count("bytes.index_file", index_bytes);

  // One sweep of the untraced stream: OrpKwIndex::Query per request.
  const auto check_answers = [&] {
    for (size_t i = 0; i < num_queries; ++i) {
      report->Check(SameIds(answers[i], references[i]));
    }
  };
  const auto clear_answers = [&] {
    for (auto& answer : answers) std::vector<ObjectId>().swap(answer);
  };
  std::vector<double> latencies;
  int64_t next_open = NowNanos();
  const auto untraced_pass = [&] {
    if (!args.trace && NowNanos() >= next_open) {
      open_files();
      next_open = NowNanos() +
                  kReopenEvery * static_cast<int64_t>(open_ms.back() * 1e6);
    }
    clear_answers();
    const int64_t pass_start = NowNanos();
    for (size_t i = 0; i < num_queries; ++i) {
      const int64_t t0 = NowNanos();
      answers[i] = index.Query(queries[i].box, queries[i].keywords);
      latencies.push_back(double(NowNanos() - t0) / 1e3);
    }
    const double rate =
        double(num_queries) / (double(NowNanos() - pass_start) / 1e9);
    check_answers();
    return rate;
  };
  if (!args.trace) {
    ReportEndToEnd(setup_s, open_ms, latencies, num_queries,
                   RunPasses(args.seconds, untraced_pass),
                   double(corpus_bytes + index_bytes) / n, report);
    return;
  }

  // The traced stream: the three calls OrpKwIndex::Query composes, each in
  // its own span.
  const auto traced_pass = [&] {
    clear_answers();
    const int64_t pass_start = NowNanos();
    for (size_t i = 0; i < num_queries; ++i) {
      const uint32_t id = request++;
      const int32_t root = log.Begin(kRequest, -1, id);
      int32_t span = log.Begin(kCanonicalize, root, id);
      const std::vector<KeywordId> sorted =
          CanonicalizeQueryKeywords(queries[i].keywords, kK);
      KeepAlive(sorted);
      log.End(span);
      span = log.Begin(kRankBox, root, id);
      const OrpKwIndex<2>::RankBox rank_box = index.ToRankBox(queries[i].box);
      KeepAlive(rank_box);
      log.End(span);
      span = log.Begin(kDescend, root, id);
      std::vector<ObjectId>& out = answers[i];
      index.QueryRankEmit(rank_box, sorted, [&out](ObjectId e) {
        out.push_back(e);
        return true;
      });
      log.End(span);
      log.End(root);
    }
    const double rate =
        double(num_queries) / (double(NowNanos() - pass_start) / 1e9);
    check_answers();
    return rate;
  };
  const auto rates =
      RunAlternating(args.seconds, untraced_pass, traced_pass,
                     [&] { return log.HasRoom(4 * num_queries); });

  const auto median_of = [&log](SpanName name, double scale) {
    return Median(Scaled(log.SelfNanosOf(name), scale));
  };
  report->latency_samples = log.SelfNanosOf(kDescend).size();
  report->requests = num_queries;
  report->layer["core.build_s"] = median_of(kBuild, 1e-9);
  report->layer["core.save_flat_ms"] = median_of(kSaveFlat, 1e-6);
  report->layer["text.corpus_load_ms"] = median_of(kCorpusLoad, 1e-6);
  report->layer["common.flat_open_ms"] = median_of(kFlatOpen, 1e-6);
  report->layer["core.canonicalize_ns"] =
      MedianSweepMean(log.SelfNanosOf(kCanonicalize), num_queries);
  report->layer["geom.rank_box_ns"] =
      MedianSweepMean(log.SelfNanosOf(kRankBox), num_queries);
  const std::vector<double> descend_us =
      Scaled(log.SelfNanosOf(kDescend), 1e-3);
  report->layer["core.descend_p50_us"] = Quantile(descend_us, 0.50);
  report->layer["core.descend_p99_us"] = Quantile(descend_us, 0.99);
  report->layer["trace.overhead"] = TraceOverhead(rates);
  report->layer["text.corpus_bytes_per_n"] = double(corpus_bytes) / n;
  report->layer["core.index_bytes_per_n"] = double(index_bytes) / n;
  KWSC_CHECK_MSG(log.Write(args.dir + "/spans-" + args.workload + ".tsv"),
                 "cannot write the span log");
}

}  // namespace kwsc::perfbench

#endif  // KWSC_PERFBENCH_ORP_H_
