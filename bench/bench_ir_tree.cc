// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment RW — the related-work contrast (Section 2): the paper observes
// that the spatial-keyword indexes of the systems literature "perform well
// on real data" but "do not have interesting theoretical guarantees". This
// bench stages that contrast: a simplified IR-tree (baseline/ir_tree.h) vs.
// the Theorem-1 index on two workloads —
//   * "friendly": rare/co-occurring keywords, where the IR-tree's summary
//     pruning shines and both indexes are fast;
//   * "adversarial": two frequent keywords that never co-occur inside the
//     query region, where the IR-tree degenerates to an R-tree region scan
//     while the transformed index keeps its N^{1-1/k} guarantee.

#include <cstdio>

#include "baseline/ir_tree.h"
#include "bench_util.h"
#include "common/random.h"
#include "core/orp_kw.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr int kQueries = 32;

void Friendly() {
  std::printf("\n-- friendly workload: co-occurring keywords, 5%% boxes --\n");
  std::printf("%10s %12s %14s %14s\n", "N", "OUT(avg)", "kwsc(us)",
              "ir-tree(us)");
  for (uint32_t n_objects : {8192u, 32768u, 131072u}) {
    Rng rng(n_objects + 77);
    CorpusSpec spec;
    spec.num_objects = n_objects;
    spec.vocab_size = std::max<uint32_t>(64, n_objects / 16);
    Corpus corpus = GenerateCorpus(spec, &rng);
    auto pts =
        GeneratePoints<2>(n_objects, PointDistribution::kClustered, &rng);
    FrameworkOptions opt;
    opt.k = 2;
    OrpKwIndex<2> orp(pts, &corpus, opt);
    IrTree<2> ir(pts, &corpus);

    std::vector<Box<2>> boxes;
    std::vector<std::vector<KeywordId>> kws;
    for (int i = 0; i < kQueries; ++i) {
      boxes.push_back(
          GenerateBoxQuery(std::span<const Point<2>>(pts), 0.05, &rng));
      kws.push_back(
          PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng));
    }
    uint64_t out_total = 0;
    for (int i = 0; i < kQueries; ++i) {
      out_total += orp.Query(boxes[i], kws[i]).size();
    }
    const double t_orp = bench::MedianMicros([&] {
      for (int i = 0; i < kQueries; ++i) orp.Query(boxes[i], kws[i]);
    }) / kQueries;
    const double t_ir = bench::MedianMicros([&] {
      for (int i = 0; i < kQueries; ++i) ir.Query(boxes[i], kws[i]);
    }) / kQueries;
    const double n = static_cast<double>(corpus.total_weight());
    std::printf("%10.0f %12.1f %14.2f %14.2f\n", n,
                static_cast<double>(out_total) / kQueries, t_orp, t_ir);
    bench::PrintCsv("RW", {{"friendly", 1},
                           {"N", n},
                           {"OUT", static_cast<double>(out_total) / kQueries},
                           {"kwsc_us", t_orp},
                           {"irtree_us", t_ir}});
  }
}

void Adversarial() {
  std::printf(
      "\n-- adversarial workload: frequent disjoint pair, whole space, "
      "OUT = 0 --\n");
  std::printf("%10s %14s %14s %16s %16s\n", "N", "kwsc(us)", "ir-tree(us)",
              "kwsc examined", "ir candidates");
  std::vector<double> ns;
  std::vector<double> ir_cands;
  for (uint32_t n_objects : {8192u, 32768u, 131072u}) {
    Rng rng(n_objects + 78);
    std::vector<Document> docs;
    std::vector<Point<2>> pts;
    for (uint32_t i = 0; i < n_objects; ++i) {
      // Keywords 0 and 1 each cover half the data, never together; plus
      // background tags so documents look realistic.
      docs.push_back(Document{static_cast<KeywordId>(i % 2),
                              static_cast<KeywordId>(2 + i % 64),
                              static_cast<KeywordId>(66 + i % 512)});
      pts.push_back({{rng.NextDouble(), rng.NextDouble()}});
    }
    Corpus corpus(docs);
    FrameworkOptions opt;
    opt.k = 2;
    OrpKwIndex<2> orp(pts, &corpus, opt);
    IrTree<2> ir(pts, &corpus);
    std::vector<KeywordId> kws = {0, 1};
    const auto everything = Box<2>::Everything();

    QueryStats orp_stats;
    orp.Query(everything, kws, &orp_stats);
    BaselineStats ir_stats;
    ir.Query(everything, kws, &ir_stats);
    const double t_orp =
        bench::MedianMicros([&] { orp.Query(everything, kws); });
    const double t_ir =
        bench::MedianMicros([&] { ir.Query(everything, kws); });
    const double n = static_cast<double>(corpus.total_weight());
    std::printf("%10.0f %14.2f %14.2f %16llu %16llu\n", n, t_orp, t_ir,
                static_cast<unsigned long long>(orp_stats.ObjectsExamined()),
                static_cast<unsigned long long>(ir_stats.candidates));
    bench::PrintCsv("RW", {{"friendly", 0},
                           {"N", n},
                           {"kwsc_us", t_orp},
                           {"irtree_us", t_ir},
                           {"kwsc_examined",
                            double(orp_stats.ObjectsExamined())},
                           {"ir_candidates", double(ir_stats.candidates)}});
    ns.push_back(n);
    ir_cands.push_back(std::max(double(ir_stats.candidates), 1.0));
  }
  bench::PrintExponent("RW ir-tree candidates vs N (adversarial)",
                       bench::FitLogLogSlope(ns, ir_cands), 1.0);
}

}  // namespace
}  // namespace kwsc

int main() {
  kwsc::bench::PrintHeader(
      "RW theory vs. empirical spatial-keyword indexing (Section 2)",
      "the IR-tree prunes well on friendly keyword distributions but has no "
      "worst-case guarantee; the Theorem-1 index stays sublinear on the "
      "adversarial frequent-disjoint workload");
  kwsc::Friendly();
  kwsc::Adversarial();
  return 0;
}
