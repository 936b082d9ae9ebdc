// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment A2 — ablation of the two query-time devices of Section 3.2/3.3:
//   * the per-child k-tuple emptiness registry (prunes fruitless descents);
//   * the materialized lists (cap the cost at the node where a keyword turns
//     small).
// Removing either must leave answers unchanged (tests assert that) but push
// work toward the naive baselines — the motivation the paper tells in
// Section 3.

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/orp_kw.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr int kQueries = 32;

struct Config {
  const char* name;
  bool tuples;
  bool lists;
};

void Run() {
  const uint32_t n_objects = 65536;
  Rng rng(456);
  CorpusSpec spec;
  spec.num_objects = n_objects;
  spec.vocab_size = 4096;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(n_objects, PointDistribution::kUniform, &rng);

  struct NamedWorkload {
    const char* name;
    double selectivity;
    KeywordPick pick;
  };
  const NamedWorkload workloads[] = {
      {"W1 frequent+tiny-box", 0.001, KeywordPick::kFrequent},
      {"W2 cooccur+big-box", 0.6, KeywordPick::kCooccurring},
  };
  const Config configs[] = {
      {"full framework", true, true},
      {"no tuple pruning", false, true},
      {"no materialized lists", true, false},
      {"neither (tree only)", false, false},
  };

  // W3: planted-disjoint frequent pair. Keywords kA/kB are each in half the
  // documents but never together, so the answer is always empty; only the
  // tuple registry can prove that at the root instead of descending.
  const KeywordId kA = 4100;
  const KeywordId kB = 4101;
  {
    std::vector<Document> docs;
    docs.reserve(n_objects);
    for (uint32_t i = 0; i < n_objects; ++i) {
      std::vector<KeywordId> kws_i(corpus.doc(i).begin(),
                                   corpus.doc(i).end());
      kws_i.push_back(i % 2 == 0 ? kA : kB);
      docs.emplace_back(std::move(kws_i));
    }
    corpus = Corpus(docs);
  }
  {
    std::printf("\n-- W3 planted-disjoint frequent pair (OUT = 0) --\n");
    std::printf("%-24s %14s %14s\n", "config", "query(us)", "examined");
    std::vector<KeywordId> q_kws = {kA, kB};
    auto box = Box<2>::Everything();
    for (const Config& c : configs) {
      FrameworkOptions opt;
      opt.k = 2;
      opt.enable_tuple_pruning = c.tuples;
      opt.enable_materialized_lists = c.lists;
      OrpKwIndex<2> index(pts, &corpus, opt);
      QueryStats stats;
      index.Query(box, q_kws, &stats);
      const double t = bench::MedianMicros(
          [&] { index.Query(box, q_kws); }, /*reps=*/3);
      std::printf("%-24s %14.2f %14llu\n", c.name, t,
                  static_cast<unsigned long long>(stats.ObjectsExamined()));
      bench::PrintCsv("A2", {{"workload", 2},
                             {"tuples", double(c.tuples)},
                             {"lists", double(c.lists)},
                             {"query_us", t},
                             {"examined", double(stats.ObjectsExamined())}});
    }
  }

  for (const auto& w : workloads) {
    std::vector<Box<2>> boxes;
    std::vector<std::vector<KeywordId>> kws;
    for (int i = 0; i < kQueries; ++i) {
      boxes.push_back(GenerateBoxQuery(std::span<const Point<2>>(pts),
                                       w.selectivity, &rng));
      kws.push_back(PickQueryKeywords(corpus, 2, w.pick, &rng,
                                      /*frequent_pool=*/6));
    }
    std::printf("\n-- %s --\n", w.name);
    std::printf("%-24s %14s %14s\n", "config", "query(us)", "examined");
    for (const Config& c : configs) {
      FrameworkOptions opt;
      opt.k = 2;
      opt.enable_tuple_pruning = c.tuples;
      opt.enable_materialized_lists = c.lists;
      OrpKwIndex<2> index(pts, &corpus, opt);
      uint64_t examined = 0;
      for (int i = 0; i < kQueries; ++i) {
        QueryStats stats;
        index.Query(boxes[i], kws[i], &stats);
        examined += stats.ObjectsExamined();
      }
      const double t = bench::MedianMicros([&] {
        for (int i = 0; i < kQueries; ++i) index.Query(boxes[i], kws[i]);
      }, /*reps=*/3) / kQueries;
      std::printf("%-24s %14.2f %14.1f\n", c.name, t,
                  double(examined) / kQueries);
      bench::PrintCsv("A2", {{"workload", double(&w - workloads)},
                             {"tuples", double(c.tuples)},
                             {"lists", double(c.lists)},
                             {"query_us", t},
                             {"examined", double(examined) / kQueries}});
    }
  }
}

}  // namespace
}  // namespace kwsc

int main() {
  kwsc::bench::PrintHeader(
      "A2 pruning-device ablation (Sections 3.2-3.3)",
      "tuple registry and materialized lists are both load-bearing: without "
      "them work drifts toward the naive baselines");
  kwsc::Run();
  return 0;
}
