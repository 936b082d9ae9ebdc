// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Temporal keyword search (RR-KW with d = 1; the paper cites Anand et al.
// [7]): every news article has a validity interval [publish, supersede] and
// a set of topic keywords; a query asks for the articles *live at some point
// of a time window* that mention all k topics.
//
//   $ ./build/examples/temporal_news

#include <cstdio>
#include <vector>

#include "baseline/keywords_only.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/rr_kw.h"
#include "text/corpus.h"

namespace {

using namespace kwsc;

// Topic vocabulary (indices into kTopics).
const char* kTopics[] = {"elections", "energy",  "markets", "science",
                         "health",    "climate", "sports",  "courts"};
constexpr int kNumTopics = 8;

struct NewsArchive {
  Corpus corpus;
  std::vector<Box<1>> lifespans;  // [publish day, supersede day].
};

NewsArchive MakeArchive(uint32_t n_articles, double horizon_days) {
  Rng rng(1848);
  std::vector<Document> docs;
  std::vector<Box<1>> spans;
  for (uint32_t i = 0; i < n_articles; ++i) {
    std::vector<KeywordId> topics;
    // 2-4 topics per article, skewed toward the first few.
    const int count = 2 + static_cast<int>(rng.NextBounded(3));
    while (static_cast<int>(topics.size()) < count) {
      KeywordId t = static_cast<KeywordId>(
          rng.NextBounded(rng.NextBool(0.6) ? 3 : kNumTopics));
      if (std::find(topics.begin(), topics.end(), t) == topics.end()) {
        topics.push_back(t);
      }
    }
    docs.emplace_back(std::move(topics));
    const double publish = rng.UniformDouble(0, horizon_days);
    const double lifetime = 1 + rng.UniformDouble(0, 30);  // Days live.
    spans.push_back({{{publish}}, {{publish + lifetime}}});
  }
  return {Corpus(docs), std::move(spans)};
}

}  // namespace

int main() {
  const uint32_t n = 100000;
  const double horizon = 3650;  // Ten years of articles.
  NewsArchive archive = MakeArchive(n, horizon);

  FrameworkOptions opt;
  opt.k = 2;
  RrKwIndex<1> index(archive.lifespans, &archive.corpus, opt);
  KeywordsOnlyRectBaseline<1> baseline(archive.lifespans, &archive.corpus);

  std::printf("archive: %u articles over %.0f days, N = %llu\n", n, horizon,
              static_cast<unsigned long long>(
                  archive.corpus.total_weight()));

  struct Scenario {
    const char* description;
    Box<1> window;
    std::vector<KeywordId> topics;
  };
  const Scenario scenarios[] = {
      {"one week, elections+markets", {{{1000}}, {{1007}}}, {0, 2}},
      {"one day, energy+climate", {{{2500}}, {{2501}}}, {1, 5}},
      {"one year, science+health", {{{365}}, {{730}}}, {3, 4}},
  };

  for (const Scenario& s : scenarios) {
    QueryStats stats;
    WallTimer timer;
    auto hits = index.Query(s.window, s.topics, &stats);
    const double t_index = timer.ElapsedMicros();
    BaselineStats b_stats;
    timer.Restart();
    auto base_hits = baseline.Query(s.window, s.topics, &b_stats);
    const double t_base = timer.ElapsedMicros();

    std::printf("\nquery: %s (days %.0f-%.0f)\n", s.description,
                s.window.lo[0], s.window.hi[0]);
    std::printf("  topics: %s + %s\n", kTopics[s.topics[0]],
                kTopics[s.topics[1]]);
    std::printf("  live matching articles: %zu (baseline agrees: %s)\n",
                hits.size(), hits.size() == base_hits.size() ? "yes" : "NO");
    std::printf("  kwsc RR-KW index: %8.1f us (%llu objects examined)\n",
                t_index,
                static_cast<unsigned long long>(stats.ObjectsExamined()));
    std::printf("  keywords-only:    %8.1f us (%llu candidates)\n", t_base,
                static_cast<unsigned long long>(b_stats.candidates));
  }
  return 0;
}
