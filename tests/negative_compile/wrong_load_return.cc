// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Negative-compilation case (tests/CMakeLists.txt, "Negative compilation"):
// this TU MUST NOT compile. An index whose LoadFlat fills an instance in
// place (returning void) instead of returning the attached index has the
// wrong shape; FlatPersistable rejects it.

#include <iosfwd>
#include <memory>

#include "common/flat_arena.h"
#include "core/contracts.h"
#include "text/corpus.h"

namespace {

struct WrongLoadReturn {
  void SaveFlat(std::ostream* out) const;
  void LoadFlat(std::shared_ptr<const kwsc::MmapFile> file,
                const kwsc::Corpus* corpus);  // must return the index
};

static_assert(kwsc::FlatPersistable<WrongLoadReturn>);

}  // namespace
