// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Lint fixture: seeded v2 flat-container pairing violations. Scanned as
// text by lint_test, never compiled.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

namespace kwsc {

struct MmapFile;

// Violation 1: a flat writer with no flat reader in the same file.
struct MissingLoadFlat {
  void SaveFlat(std::ostream* out, uint32_t family_tag) const {
    write_bytes(out, family_tag);
    // seeded violation: no LoadFlat anywhere in this file
  }
  void write_bytes(std::ostream* out, uint32_t tag) const;
};

// Violation 2: a flat reader with no flat writer in the same file.
struct MissingSaveFlat {
  static MissingSaveFlat LoadFlat(std::shared_ptr<const MmapFile> file,
                                  uint64_t offset) {
    // seeded violation: no SaveFlat anywhere in this file
    return MissingSaveFlat{};
  }
};

// Control: a complete flat pair, one side out of line, is clean.
struct FlatControl {
  std::vector<uint32_t> items;

  void SaveFlat(std::ostream* out, uint32_t family_tag) const;
  static FlatControl LoadFlat(std::shared_ptr<const MmapFile> file,
                              uint64_t offset) {
    return FlatControl{};
  }
  void write_bytes(std::ostream* out, uint32_t tag) const;
};

void FlatControl::SaveFlat(std::ostream* out, uint32_t family_tag) const {
  write_bytes(out, family_tag);
}

}  // namespace kwsc
