// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The golden-format dataset: a tiny hand-written workload (no generators,
// no Rng — the bytes must be a pure function of the format code) and the
// exact bytes the committed files under tests/golden/ were produced from:
// the corpus container, the dynamic checkpoint's container sequence and the
// flat index containers. Shared by tests/golden_format_test.cc (regenerate,
// byte-compare, load, audit) and tests/make_golden.cc (the one-shot writer
// that created the committed files).
//
// If a golden comparison fails, the on-disk format changed: bump the owning
// format's constant in src/core/format_versions.h, regenerate FORMATS.lock
// (tools/run_abi.sh --update) AND the golden files (build/tests/make_golden
// tests/golden), and say so in the change description. Goldens exist to make
// that step deliberate, never accidental.

#ifndef KWSC_TESTS_GOLDEN_UTIL_H_
#define KWSC_TESTS_GOLDEN_UTIL_H_

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "core/sp_kw_box.h"
#include "geom/point.h"
#include "text/corpus.h"

namespace kwsc {
namespace golden {

/// 8 documents over a 6-keyword vocabulary, keywords sorted per document.
inline std::vector<Document> MakeDocuments() {
  std::vector<Document> docs;
  docs.emplace_back(Document{0, 1});
  docs.emplace_back(Document{1, 2});
  docs.emplace_back(Document{0, 3});
  docs.emplace_back(Document{2, 4});
  docs.emplace_back(Document{1, 5});
  docs.emplace_back(Document{0, 2, 4});
  docs.emplace_back(Document{3, 5});
  docs.emplace_back(Document{0, 5});
  return docs;
}

inline Corpus MakeCorpus() { return Corpus(MakeDocuments()); }

inline std::vector<Point<2>> MakePoints() {
  return {Point<2>{{1, 2}}, Point<2>{{3, 1}}, Point<2>{{2, 5}},
          Point<2>{{5, 4}}, Point<2>{{4, 2}}, Point<2>{{6, 6}},
          Point<2>{{0, 3}}, Point<2>{{7, 1}}};
}

inline FrameworkOptions MakeOptions() {
  FrameworkOptions opt;
  opt.k = 2;
  return opt;
}

/// The batch-dynamic index whose checkpoint is golden-locked: the
/// same 8 objects inserted one at a time through a capacity-2 buffer (so
/// several binary-counter carries fire), then two tombstones. Synchronous
/// carries (no merge pool), so the structure is a pure function of the
/// update sequence.
inline std::unique_ptr<DynamicIndex<OrpKwIndex<2>>> MakeDynamic() {
  auto dyn = std::make_unique<DynamicIndex<OrpKwIndex<2>>>(
      MakeOptions(), /*buffer_capacity=*/2);
  const std::vector<Point<2>> pts = MakePoints();
  std::vector<Document> docs = MakeDocuments();
  for (size_t i = 0; i < pts.size(); ++i) {
    dyn->Insert(pts[i], std::move(docs[i]));
  }
  dyn->Delete(2);
  dyn->Delete(5);
  return dyn;
}

/// name -> byte stream, for all four golden files.
struct GoldenFile {
  std::string name;
  std::string bytes;
};

inline std::vector<GoldenFile> RenderAll() {
  const Corpus corpus = MakeCorpus();
  const std::vector<Point<2>> pts = MakePoints();
  const OrpKwIndex<2> orp(pts, &corpus, MakeOptions());
  const SpKwBoxIndex<2> sp(pts, &corpus, MakeOptions());

  std::vector<GoldenFile> files;
  {
    std::ostringstream out;
    corpus.Save(&out);
    files.push_back({"corpus_v2.bin", out.str()});
  }
  {
    std::ostringstream out;
    orp.SaveFlat(&out);
    files.push_back({"orp_kw_v2.bin", out.str()});
  }
  {
    std::ostringstream out;
    sp.SaveFlat(&out);
    files.push_back({"sp_kw_box_v2.bin", out.str()});
  }
  {
    std::ostringstream out;
    MakeDynamic()->SaveCheckpoint(&out);
    files.push_back({"dynamic_checkpoint_v3.bin", out.str()});
  }
  return files;
}

}  // namespace golden
}  // namespace kwsc

#endif  // KWSC_TESTS_GOLDEN_UTIL_H_
