// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Negative-compilation positive control (tests/CMakeLists.txt, "Negative
// compilation"): this TU MUST compile. It proves the harness's include
// paths and standard level are right, so a failure of the negative cases
// means the concept rejected them, not that the harness is broken.

#include <iosfwd>
#include <memory>

#include "common/flat_arena.h"
#include "core/contracts.h"
#include "text/corpus.h"

namespace {

struct Conforming {
  void SaveFlat(std::ostream* out) const;
  static Conforming LoadFlat(std::shared_ptr<const kwsc::MmapFile> file,
                             const kwsc::Corpus* corpus);
};

static_assert(kwsc::FlatPersistable<Conforming>);

}  // namespace
