// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Shared pieces of the benchmark: arguments, the report every workload
// fills, order statistics over raw samples, input generation, the
// brute-force reference, and file helpers.

#ifndef KWSC_PERFBENCH_HARNESS_H_
#define KWSC_PERFBENCH_HARNESS_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/framework.h"
#include "geom/box.h"
#include "geom/point.h"
#include "spans.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "workload/generator.h"

namespace kwsc::perfbench {

constexpr int kK = 2;
// Set-up and open run at least kSetupReps and kOpenReps times per run, and
// more while they have taken under a second (at most kMaxReps times), so
// cheap steps get a steadier median.
constexpr int kSetupReps = 3;
constexpr int kOpenReps = 5;
constexpr int kMaxReps = 15;
// The untraced stream opens the files once more (at a pass boundary)
// whenever it has run this many times as long as the last open took, so
// open_ms samples the whole run, not only its start, at a fifth of the
// stream's time.
constexpr int64_t kReopenEvery = 4;
// Every timed loop runs at least this many sweeps of the request log, so
// each request's latency is a median over repeated trials.
constexpr size_t kMinSweeps = 3;
// Request logs hold at least this many requests, so p99 has at least ten
// samples beyond it.
constexpr size_t kMinRequests = 1100;
// The traced run keeps at most this many spans (32 bytes each).
constexpr size_t kSpanCapacity = size_t{1} << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  // Where the run's files go.
};

inline FrameworkOptions IndexOptions() {
  FrameworkOptions options;
  options.k = kK;
  options.num_threads = 1;
  return options;
}

/// Whether a repeated set-up or open step, started at `start_ns` and done
/// `done` times, runs again.
inline bool MoreReps(int done, int min_reps, int64_t start_ns) {
  return done < min_reps ||
         (done < kMaxReps && NowNanos() - start_ns < 1'000'000'000);
}

// ---- Order statistics over raw samples ----

/// The nearest-rank p-quantile: the ceil(p*n)-th smallest sample.
inline double Quantile(std::vector<double> samples, double p) {
  KWSC_CHECK(!samples.empty());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

inline std::vector<double> Scaled(std::vector<double> values, double factor) {
  for (double& v : values) v *= factor;
  return values;
}

/// The median over sweeps of each sweep's mean: `samples` holds whole
/// sweeps of `per_sweep` samples, in order. Calls that take a few clock
/// ticks get a value with all its digits, where a median of raw samples
/// would read whole nanoseconds.
inline double MedianSweepMean(const std::vector<double>& samples,
                              size_t per_sweep) {
  KWSC_CHECK(per_sweep > 0 && !samples.empty() &&
             samples.size() % per_sweep == 0);
  std::vector<double> means;
  for (size_t first = 0; first < samples.size(); first += per_sweep) {
    double sum = 0.0;
    for (size_t i = first; i < first + per_sweep; ++i) sum += samples[i];
    means.push_back(sum / static_cast<double>(per_sweep));
  }
  return Median(std::move(means));
}

// ---- The report ----

/// What one run prints. End-to-end metrics come from the untraced run,
/// per-layer metrics from the traced one; counts are deterministic given
/// the seed and are printed on every run.
struct Report {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layer;  // Absent = the layer did not run.
  std::vector<std::pair<std::string, uint64_t>> counts;
  uint64_t fingerprint = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t latency_samples = 0;
  size_t requests = 0;  // Distinct requests in the log.

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Count(const std::string& name, uint64_t value) {
    counts.emplace_back(name, value);
  }
};

/// Adds the QueryStats totals of the counting pass to the counts and the
/// per-query layer metrics.
inline void ReportQueryStats(const QueryStats& s, size_t queries,
                             Report* report) {
  report->Count("stats.nodes_visited", s.nodes_visited);
  report->Count("stats.covered_nodes", s.covered_nodes);
  report->Count("stats.crossing_nodes", s.crossing_nodes);
  report->Count("stats.pivot_checks", s.pivot_checks);
  report->Count("stats.list_scanned", s.list_scanned);
  report->Count("stats.results", s.results);
  report->Count("stats.tuple_pruned", s.tuple_pruned);
  report->Count("stats.geom_pruned", s.geom_pruned);
  report->Count("stats.covered_work", s.covered_work);
  report->Count("stats.crossing_work", s.crossing_work);
  const double q = static_cast<double>(queries);
  report->layer["core.nodes_per_query"] = double(s.nodes_visited) / q;
  report->layer["core.pivots_per_query"] = double(s.pivot_checks) / q;
  report->layer["core.list_scanned_per_query"] = double(s.list_scanned) / q;
  report->layer["core.results_per_query"] = double(s.results) / q;
  const uint64_t examined = s.ObjectsExamined();
  report->layer["core.yield"] =
      examined == 0 ? 0.0 : double(s.results) / double(examined);
  const uint64_t work = s.covered_work + s.crossing_work;
  report->layer["core.crossing_work_share"] =
      work == 0 ? 0.0 : double(s.crossing_work) / double(work);
}

// ---- Inputs ----

/// One request's query: a box and k distinct keywords.
struct Request {
  Box<2> box;
  std::vector<KeywordId> keywords;
};

/// A workload's generated inputs: Zipf-1.0 documents of 2-8 keywords over
/// vocab words, clustered 2-D points, and a query log.
struct Dataset {
  std::vector<Point<2>> points;
  Corpus corpus;
  std::vector<Request> queries;
};

struct DatasetSpec {
  uint32_t objects = 0;
  uint32_t vocab = 0;
  size_t queries = 0;
  double min_area = 0.0;  // Box area as a share of the unit square.
  double max_area = 0.0;
  KeywordPick pick = KeywordPick::kCooccurring;
};

inline Dataset Generate(const DatasetSpec& spec, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  CorpusSpec corpus_spec;
  corpus_spec.num_objects = spec.objects;
  corpus_spec.vocab_size = spec.vocab;
  corpus_spec.zipf_skew = 1.0;
  corpus_spec.min_doc_len = 2;
  corpus_spec.max_doc_len = 8;
  d.corpus = GenerateCorpus(corpus_spec, &rng);
  d.points = GeneratePoints<2>(spec.objects, PointDistribution::kClustered,
                               &rng);
  d.queries.reserve(spec.queries);
  for (size_t i = 0; i < spec.queries; ++i) {
    Request r;
    const double area = rng.UniformDouble(spec.min_area, spec.max_area);
    r.box = GenerateBoxQuery<2, double>(d.points, area, &rng);
    r.keywords = PickQueryKeywords(d.corpus, kK, spec.pick, &rng);
    d.queries.push_back(std::move(r));
  }
  return d;
}

/// FNV-1a over the generated inputs; the self-test compares it across seeds.
class Fingerprint {
 public:
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  template <typename T>
  void AddAll(std::span<const T> items) {
    Add(items.data(), items.size_bytes());
  }
  void AddDataset(const Dataset& d) {
    AddAll<Point<2>>(d.points);
    for (ObjectId e = 0; e < d.corpus.num_objects(); ++e) {
      AddAll<KeywordId>(d.corpus.doc(e).keywords());
    }
    for (const Request& r : d.queries) {
      Add(&r.box, sizeof(r.box));
      AddAll<KeywordId>(r.keywords);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// ---- The reference ----

inline bool InBox(const Box<2>& box, const Point<2>& p) {
  return p[0] >= box.lo[0] && p[0] <= box.hi[0] && p[1] >= box.lo[1] &&
         p[1] <= box.hi[1];
}

inline bool HasAll(const std::vector<KeywordId>& doc,
                   const std::vector<KeywordId>& keywords) {
  for (KeywordId w : keywords) {
    if (std::find(doc.begin(), doc.end(), w) == doc.end()) return false;
  }
  return true;
}

/// The reference answers, from the generated points and raw keyword lists
/// alone (no library index code): a linear scan over the objects whose
/// keyword list holds the query's rarer keyword.
class Reference {
 public:
  explicit Reference(const Dataset& d)
      : d_(d), objects_of_(d.corpus.vocab_size()) {
    for (ObjectId e = 0; e < d.corpus.num_objects(); ++e) {
      for (KeywordId w : d.corpus.doc(e).keywords()) {
        objects_of_[w].push_back(e);
      }
    }
  }

  /// Ids below `limit` that lie in the box, carry every keyword, and (when
  /// `alive` is given) are alive, ascending.
  std::vector<ObjectId> Answer(const Request& q, size_t limit,
                               const std::vector<uint8_t>* alive) const {
    const std::vector<ObjectId>* scan = &objects_of_[q.keywords[0]];
    for (KeywordId w : q.keywords) {
      if (objects_of_[w].size() < scan->size()) scan = &objects_of_[w];
    }
    std::vector<ObjectId> out;
    for (ObjectId e : *scan) {
      if (e >= limit) break;
      if (alive != nullptr && (*alive)[e] == 0) continue;
      if (InBox(q.box, d_.points[e]) &&
          HasAll(d_.corpus.doc(e).keywords(), q.keywords)) {
        out.push_back(e);
      }
    }
    return out;
  }

 private:
  const Dataset& d_;
  std::vector<std::vector<ObjectId>> objects_of_;
};

/// Sorts an index answer and compares it with the ascending reference.
inline bool SameIds(std::vector<ObjectId> answer,
                    const std::vector<ObjectId>& reference) {
  std::sort(answer.begin(), answer.end());
  return answer == reference;
}

// ---- Verification probe (text layer) ----

/// Per query, the objects the text layer verifies: those in the box that
/// carry the query's rarer keyword, in ascending id order (the order a list
/// scan visits them), plus the query's canonical keywords.
struct VerifyPairs {
  std::vector<std::vector<ObjectId>> objects;
  std::vector<std::vector<KeywordId>> keywords;
  uint64_t pairs = 0;
  uint64_t passing = 0;
};

inline VerifyPairs MakeVerifyPairs(const Dataset& d) {
  const InvertedIndex inverted(d.corpus);
  VerifyPairs v;
  for (const Request& q : d.queries) {
    std::vector<KeywordId> sorted = q.keywords;
    std::sort(sorted.begin(), sorted.end());
    KeywordId rarer = sorted[0];
    for (KeywordId w : sorted) {
      if (inverted.PostingSize(w) < inverted.PostingSize(rarer)) rarer = w;
    }
    std::vector<ObjectId> objects;
    for (ObjectId e : inverted.Postings(rarer)) {
      if (InBox(q.box, d.points[e])) objects.push_back(e);
    }
    for (ObjectId e : objects) {
      v.passing += HasAll(d.corpus.doc(e).keywords(), sorted) ? 1 : 0;
    }
    v.pairs += objects.size();
    v.objects.push_back(std::move(objects));
    v.keywords.push_back(std::move(sorted));
  }
  return v;
}

/// Counts the probe's pairs; when traced, times Corpus::ContainsAll over
/// them (one span per query, `reps` sweeps) and reports the median sweep's
/// span time per pair. Checks that ContainsAll agrees with the raw lists.
inline void RunVerifyProbe(const Dataset& d, const Corpus& corpus, int reps,
                           SpanLog* log, uint32_t* request, Report* report) {
  const VerifyPairs v = MakeVerifyPairs(d);
  report->Count("verify.pairs", v.pairs);
  report->Count("verify.passing", v.passing);
  const double queries = static_cast<double>(d.queries.size());
  report->layer["text.verify_pairs_per_query"] = double(v.pairs) / queries;
  report->layer["text.verify_pass"] =
      v.pairs == 0 ? 0.0 : double(v.passing) / double(v.pairs);
  if (!log->enabled()) return;
  std::vector<double> ns_per_pair;
  for (int rep = 0; rep < reps && v.pairs > 0 &&
                  log->HasRoom(v.objects.size());
       ++rep) {
    uint64_t passing = 0;
    const size_t first = log->spans().size();
    for (size_t i = 0; i < v.objects.size(); ++i) {
      ScopedSpan span(log, kVerify, -1, (*request)++);
      for (ObjectId e : v.objects[i]) {
        passing += corpus.ContainsAll(e, v.keywords[i]) ? 1 : 0;
      }
    }
    int64_t busy = 0;
    for (size_t s = first; s < log->spans().size(); ++s) {
      busy += log->spans()[s].end_ns - log->spans()[s].start_ns;
    }
    ns_per_pair.push_back(double(busy) / double(v.pairs));
    report->Check(passing == v.passing);
  }
  if (!ns_per_pair.empty()) {
    report->layer["text.contains_all_ns"] = Median(ns_per_pair);
  }
}

// ---- Timed loops ----

/// Repeats `pass` (one sweep of the request log: it appends one latency per
/// request, in log order, and returns that sweep's operations per second)
/// until `seconds` have elapsed and kMinSweeps sweeps ran. Returns the
/// per-sweep rates.
template <typename Pass>
std::vector<double> RunPasses(double seconds, Pass&& pass) {
  std::vector<double> rates;
  const int64_t start = NowNanos();
  while (rates.size() < kMinSweeps ||
         double(NowNanos() - start) < seconds * 1e9) {
    rates.push_back(pass());
  }
  return rates;
}

/// The traced run's loop: an untraced sweep, then a traced one, and again,
/// so both see the same machine and their rates give the tracing overhead.
/// Stops as RunPasses does, or earlier when `has_room` says the span log
/// could not hold another traced sweep. Returns both per-sweep rates.
template <typename Untraced, typename Traced, typename HasRoom>
std::pair<std::vector<double>, std::vector<double>> RunAlternating(
    double seconds, Untraced&& untraced, Traced&& traced, HasRoom&& has_room) {
  std::vector<double> rates;
  std::vector<double> traced_rates;
  const int64_t start = NowNanos();
  while (has_room() && (rates.size() < kMinSweeps ||
                        double(NowNanos() - start) < seconds * 1e9)) {
    rates.push_back(untraced());
    traced_rates.push_back(traced());
  }
  return {std::move(rates), std::move(traced_rates)};
}

/// Untraced over traced rate, minus 1.
inline double TraceOverhead(
    const std::pair<std::vector<double>, std::vector<double>>& rates) {
  return Median(rates.first) / Median(rates.second) - 1;
}

/// Each request's latency as the median of its trials: `latencies` holds
/// whole sweeps of a `requests`-long log, in log order.
inline std::vector<double> PerRequestMedians(
    const std::vector<double>& latencies, size_t requests) {
  KWSC_CHECK(requests >= kMinRequests && latencies.size() % requests == 0);
  const size_t sweeps = latencies.size() / requests;
  std::vector<double> medians(requests);
  std::vector<double> trials(sweeps);
  for (size_t i = 0; i < requests; ++i) {
    for (size_t s = 0; s < sweeps; ++s) trials[s] = latencies[s * requests + i];
    medians[i] = Median(trials);
  }
  return medians;
}

/// The end-to-end metrics of an untraced run. Latency percentiles are exact
/// order statistics over the log's requests of each request's median
/// latency; throughput is the median sweep's.
inline void ReportEndToEnd(const std::vector<double>& setup_s,
                           const std::vector<double>& open_ms,
                           const std::vector<double>& latencies,
                           size_t requests, const std::vector<double>& rates,
                           double bytes_per_n, Report* report) {
  const std::vector<double> per_request =
      PerRequestMedians(latencies, requests);
  report->latency_samples = latencies.size();
  report->requests = requests;
  report->end_to_end["setup_s"] = Median(setup_s);
  report->end_to_end["open_ms"] = Median(open_ms);
  report->end_to_end["query_p50_us"] = Quantile(per_request, 0.50);
  report->end_to_end["query_p99_us"] = Quantile(per_request, 0.99);
  report->end_to_end["ops_per_s"] = Median(rates);
  report->end_to_end["bytes_per_n"] = bytes_per_n;
}

// ---- Files ----

/// fsync of a written file, so later opens read files that setup flushed.
inline void Flush(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  KWSC_CHECK_MSG(fd >= 0, "cannot open %s", path.c_str());
  KWSC_CHECK_MSG(::fsync(fd) == 0, "fsync of %s failed", path.c_str());
  ::close(fd);
}

inline uint64_t FileBytes(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

}  // namespace kwsc::perfbench

#endif  // KWSC_PERFBENCH_HARNESS_H_
