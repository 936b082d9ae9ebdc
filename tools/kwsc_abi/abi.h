// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// kwsc-abi: the format-contract extractor behind FORMATS.lock.
//
// Everything kwsc persists or ships — the v2 mmap flat containers and the
// serve wire model — is defined by C++ constructs scattered across src/:
// structs reinterpreted from mapped bytes, family tags, and the ordered
// slab/root sequences each Save/Load side issues. This tool extracts all
// of them into one canonical committed manifest (FORMATS.lock)
// so that any layout drift shows up as a reviewable text diff, and the
// abi-gate can demand that the diff lands together with a bump of the
// owning format's version constant (core/format_versions.h).
//
// The extraction reuses kwsc-lint's lexical scanner (tools/kwsc_lint/
// scanner.h): same token stream, same declaration heuristics, so a
// construct kwsc-lint can check is a construct kwsc-abi can lock. What the
// scanner cannot know — real offsets, sizes, alignment, padding — comes
// from a *generated probe translation unit* (EmitProbeSource): a tiny
// program that includes the registering headers, static_asserts
// trivial-copyability / standard layout / little-endian host / absence of
// padding (for non-PADDED registrations), and prints offsetof/sizeof for
// every registered field. The driver compiles nothing itself; CMake builds
// the probe and the driver runs it (see tools/kwsc_abi/CMakeLists.txt).
//
// Pipeline:
//   LoadTree        -> the sources under <repo>/src, sorted
//   BuildModel      -> registrations, struct defs + fields, Save/Load op
//                      sequences, tag uses, format table, coverage checks
//   EmitProbeSource -> abi_probe.gen.cc (compiled by CMake)
//   ParseProbeOutput-> alias -> {size, align, field offsets/sizes}
//   RenderManifest  -> canonical FORMATS.lock text
//   DiffManifests   -> drift gate: content changes require version bumps

#ifndef KWSC_TOOLS_KWSC_ABI_ABI_H_
#define KWSC_TOOLS_KWSC_ABI_ABI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scanner.h"

namespace kwsc {
namespace abi {

struct SourceFile {
  std::string path;  // repo-relative, e.g. "src/core/orp_kw.h"
  std::string contents;
};

/// One `kwsc-abi: format` annotation from core/format_versions.h.
struct FormatSpec {
  std::string key;       // manifest name, e.g. "orp-kw"
  std::string constant;  // e.g. "kOrpKwFormatVersion"
  uint32_t version = 0;
  std::vector<std::string> tags;   // 4-char family tags, e.g. "KWO2"
  std::vector<std::string> files;  // path substrings assigning files
  int line = 0;
};

/// One field of a registered struct, as spelled in the source definition.
struct Field {
  std::string name;
  std::string type;   // canonical one-space token spelling
  std::string array;  // declarator suffix, e.g. "[ 2 ]"; empty if scalar
  int line = 0;
};

/// One KWSC_ABI_STRUCT* registration resolved against its definition.
struct StructInfo {
  std::string alias;  // manifest key; the probe names it KwscAbi_<alias>
  std::string type;   // registered type spelling
  std::string file;   // registration site
  int line = 0;
  bool padded = false;  // KWSC_ABI_STRUCT_PADDED_AS: gaps allowed, recorded
  std::string def_file;  // where the struct body was found
  int def_line = 0;
  std::vector<Field> fields;
};

/// One op in a Save*/Load* body: flat slab ops (Slab/Root) and nested
/// Save*/Load* calls (Sub).
struct FormatOp {
  std::string kind;    // "Slab" | "Root" | "Sub"
  std::string detail;  // statement spelling / callee name
  int line = 0;
};

/// The ordered op sequence of one Save*/Load* function.
struct OpSection {
  std::string file;
  std::string function;  // Owner::Name (owner empty for free functions)
  int line = 0;
  std::vector<FormatOp> ops;
};

/// A 4-char family tag spelled in a source file (FlatFamilyTag(...)).
struct TagUse {
  std::string tag;
  std::string file;
  int line = 0;
};

struct Model {
  std::vector<FormatSpec> formats;
  std::vector<StructInfo> structs;
  std::vector<OpSection> sections;
  std::vector<TagUse> tags;
  /// Coverage and consistency violations; a non-empty list blocks manifest
  /// emission (every contributing file must map to exactly one format,
  /// every spelled tag must be declared, every declared tag spelled, every
  /// registration resolvable to exactly one struct definition).
  std::vector<std::string> errors;
};

/// Scans `sources` (repo-relative paths) and assembles the model.
Model BuildModel(const std::vector<SourceFile>& sources);

/// The format covering `path`, or nullptr (with an error appended) when the
/// path matches zero or more than one format's file substrings.
const FormatSpec* FormatForPath(const Model& model, const std::string& path,
                                std::vector<std::string>* errors);

struct ProbeField {
  uint64_t offset = 0;
  uint64_t size = 0;
};
struct ProbeStruct {
  uint64_t size = 0;
  uint64_t align = 0;
  std::map<std::string, ProbeField> fields;  // by field name
};
/// alias -> measured layout.
using ProbeLayout = std::map<std::string, ProbeStruct>;

/// Generates the probe translation unit for `model`'s registrations.
std::string EmitProbeSource(const Model& model);

/// Parses the probe's stdout ("struct ..." / "field ..." lines).
ProbeLayout ParseProbeOutput(const std::string& text,
                             std::vector<std::string>* errors);

/// Renders the canonical manifest. Appends to `errors` (and returns "") when
/// the model has errors or a registration has no probe measurement.
std::string RenderManifest(const Model& model, const ProbeLayout& layout,
                           std::vector<std::string>* errors);

struct DiffResult {
  std::vector<std::string> changes;     // human-readable, per format
  std::vector<std::string> violations;  // drift without the required bump
};

/// Compares two manifests format-by-format. Any change to a format's locked
/// content (structs, fields, layout numbers, op sequences, tags) requires
/// that format's version to strictly increase; removing a format or
/// decreasing a version is always a violation. New formats are fine.
DiffResult DiffManifests(const std::string& old_text,
                         const std::string& new_text);

/// Reads every .h/.cc under <repo_root>/src, sorted by path.
std::vector<SourceFile> LoadTree(const std::string& repo_root);

}  // namespace abi
}  // namespace kwsc

#endif  // KWSC_TOOLS_KWSC_ABI_ABI_H_
