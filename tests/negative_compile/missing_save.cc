// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Negative-compilation case (tests/CMakeLists.txt, "Negative compilation"):
// this TU MUST NOT compile. An index with a LoadFlat but no SaveFlat half
// cannot claim FlatPersistable — the persistence contract is the pair.

#include <memory>

#include "common/flat_arena.h"
#include "core/contracts.h"
#include "text/corpus.h"

namespace {

struct MissingSave {
  // No SaveFlat(std::ostream*) const.
  static MissingSave LoadFlat(std::shared_ptr<const kwsc::MmapFile> file,
                              const kwsc::Corpus* corpus);
};

static_assert(kwsc::FlatPersistable<MissingSave>);

}  // namespace
