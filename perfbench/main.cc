// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// kwsc_perfbench: the repository benchmark. For one workload and seed it
// generates the inputs, sets the system up from them, opens it from files,
// replays the workload's requests in one process on one thread as a closed
// loop with one client, checks every answer against a brute-force scan, and
// prints the metrics by name with their units. perfbench/README.md has the
// workloads, the metrics, and which end-to-end metric each layer metric
// should move.
//
// Usage: kwsc_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --dir <directory for the run's files>
//
// Output, on standard output: "# " lines for people, one "counts" line of
// deterministic counts (identical for one seed), and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the traced stream and
// reports the per-layer metrics instead. Exits 1 if any answer is wrong.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "dynamic.h"
#include "harness.h"
#include "orp.h"
#include "sharded.h"

namespace kwsc::perfbench {
namespace {

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* moves;  // The end-to-end metric it should move, and where.
};

constexpr MetricInfo kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"open_ms", "ms", ""},
    {"query_p50_us", "us", ""},
    {"query_p99_us", "us", ""},
    {"ops_per_s", "1/s", ""},
    {"bytes_per_n", "B", ""},
};

// 0 is printed where a workload does not run the layer. Workload
// shorthands: orp = orp_broad and orp_selective; dyn = dynamic_mixed;
// shard = sharded_topt.
constexpr MetricInfo kPerLayer[] = {
    {"text.corpus_load_ms", "ms", "open_ms: orp, shard"},
    {"text.contains_all_ns", "ns",
     "query_p50_us, ops_per_s: orp_broad (orp_selective ~0)"},
    {"text.verify_pairs_per_query", "count",
     "query_p50_us, ops_per_s: orp_broad"},
    {"text.verify_pass", "ratio", "query_p50_us, ops_per_s: orp_broad"},
    {"text.corpus_bytes_per_n", "B", "bytes_per_n: orp, shard"},
    {"geom.rank_box_ns", "ns", "query_p50_us: orp_selective"},
    {"core.canonicalize_ns", "ns", "query_p50_us: orp_selective"},
    {"core.descend_p50_us", "us", "query_p50_us: orp"},
    {"core.descend_p99_us", "us", "query_p99_us: orp"},
    {"core.nodes_per_query", "count", "query_p50_us: all"},
    {"core.pivots_per_query", "count", "query_p50_us: all"},
    {"core.list_scanned_per_query", "count", "query_p50_us: all"},
    {"core.results_per_query", "count", "query_p50_us: all (set by inputs)"},
    {"core.yield", "ratio", "query_p50_us: all"},
    {"core.crossing_work_share", "ratio", "query_p50_us: all"},
    {"core.build_s", "s", "setup_s: orp"},
    {"core.save_flat_ms", "ms", "setup_s: orp"},
    {"core.index_bytes_per_n", "B", "bytes_per_n: orp, shard"},
    {"common.flat_open_ms", "ms", "open_ms: orp"},
    {"common.first_pass_ms", "ms", "work moving from open_ms to queries: all"},
    {"core.dynamic_insert_p50_us", "us", "ops_per_s: dyn"},
    {"core.dynamic_insert_p90_us", "us", "ops_per_s: dyn"},
    {"core.dynamic_delete_p50_us", "us", "ops_per_s: dyn"},
    {"core.dynamic_levels_per_query", "count", "query_p50_us: dyn"},
    {"core.dynamic_dead_share", "ratio", "query_p50_us: dyn"},
    {"core.dynamic_preload_s", "s", "setup_s: dyn"},
    {"core.dynamic_bytes_per_n", "B", "bytes_per_n: dyn"},
    {"serve.plan_ms", "ms", "setup_s: shard"},
    {"serve.replica_build_s", "s", "setup_s: shard"},
    {"serve.shard_p50_us", "us", "query_p50_us: shard"},
    {"serve.merge_p50_us", "us", "query_p50_us: shard"},
    {"serve.shard_max_share", "ratio", "parallel query_p99_us: shard"},
    {"serve.bytes_shipped_per_query", "B", "serve.merge_p50_us: shard"},
    {"serve.bytes_naive_per_query", "B", "reference for bytes shipped: shard"},
    {"serve.merge_rounds_per_query", "count", "serve.merge_p50_us: shard"},
    {"serve.candidates_per_query", "count", "serve.merge_p50_us: shard"},
    {"trace.overhead", "ratio", "none (untraced/traced ops_per_s - 1): all"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return have_workload && !args->dir.empty() && args->seconds > 0 &&
         argc % 2 == 1;
}

bool RunWorkload(const Args& args, Report* report) {
  DatasetSpec spec;
  spec.pick = KeywordPick::kCooccurring;
  if (args.workload == "orp_broad") {
    spec.objects = 131072;
    spec.vocab = spec.objects / 16;
    spec.queries = 16384;
    spec.min_area = 0.05;
    spec.max_area = 0.30;
    RunOrp(args, spec, report);
  } else if (args.workload == "orp_selective") {
    spec.objects = 32768;
    spec.vocab = spec.objects / 16;
    spec.queries = 32768;
    spec.min_area = 0.001;
    spec.max_area = 0.01;
    RunOrp(args, spec, report);
  } else if (args.workload == "dynamic_mixed") {
    RunDynamic(args, report);
  } else if (args.workload == "sharded_topt") {
    spec.objects = 65536;
    spec.vocab = spec.objects / 16;
    spec.queries = 8192;
    spec.min_area = 0.10;
    spec.max_area = 0.50;
    spec.pick = KeywordPick::kFrequent;
    RunSharded(args, spec, report);
  } else {
    return false;
  }
  return true;
}

void Print(const Args& args, const Report& report) {
  std::printf("# workload %s seed %llu trace %d: %llu operations checked, "
              "%llu failed; %zu latency samples over %zu requests\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.latency_samples, report.requests);
  std::printf("counts {\"fingerprint\": \"%016llx\"",
              static_cast<unsigned long long>(report.fingerprint));
  for (const auto& [name, value] : report.counts) {
    std::printf(", \"%s\": %llu", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("}\n");

  std::string metrics;
  const auto add = [&metrics](const char* name, double value,
                              const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricInfo& m : kPerLayer) {
      const auto it = report.layer.find(m.name);
      const double value = it == report.layer.end() ? 0.0 : it->second;
      std::printf("# %-32s %14.6g %-5s -> %s\n", m.name, value, m.unit,
                  m.moves);
      add(m.name, value, m.unit);
    }
  } else {
    for (const MetricInfo& m : kEndToEnd) {
      const double value = report.end_to_end.at(m.name);
      std::printf("# %-32s %14.6g %s\n", m.name, value, m.unit);
      add(m.name, value, m.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace kwsc::perfbench

int main(int argc, char** argv) {
  using namespace kwsc::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <orp_broad|orp_selective|dynamic_mixed|"
                 "sharded_topt> --seed <n> --seconds <s> --trace <0|1> "
                 "--dir <path>\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  Report report;
  if (!RunWorkload(args, &report)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Print(args, report);
  return report.failed == 0 ? 0 : 1;
}
