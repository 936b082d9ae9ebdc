// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// ABI registration for persisted and wire structs (DESIGN.md §5h).
//
// Every struct whose bytes cross a durability or process boundary — laid
// out in a flat-arena slab or root, mapped back by FlatArenaReader, or
// modeled on the serve wire — must be *registered* with
// one of the macros below, in the file that defines it. Registration does
// two jobs:
//
//   1. Compile-time: static_asserts that the type is trivially copyable and
//      standard-layout, the two properties byte-reinterpretation needs.
//   2. Tooling: the KWSC_ABI_STRUCT token is the lexical marker
//      tools/kwsc_abi scans for. The analyzer extracts the registered
//      type's field list, generates a probe translation unit computing
//      offsetof/sizeof/alignof for every field, and locks the result into
//      the committed FORMATS.lock manifest; kwsc-lint's
//      abi-unregistered-struct rule demands the marker per file.
//
// The alias each registration introduces (`KwscAbi_<name>`) is what the
// generated probe names the type by, so nested and template-instantiated
// types (e.g. OrpKwIndex<2>::FlatRoot) register through the _AS forms
// under a flat manifest name.
//
// Padding: registered structs are asserted padding-free by the probe (the
// field sizes must sum to sizeof). Types with deliberate interior padding —
// persisted only through memset-zeroed images — use the _PADDED_AS form,
// which skips the sum assert; the probe still records every padding run in
// the manifest, so a *changed* gap is still a locked-layout diff.

#ifndef KWSC_COMMON_ABI_H_
#define KWSC_COMMON_ABI_H_

#include <bit>
#include <type_traits>

/// Registers a namespace-scope struct under its own name.
#define KWSC_ABI_STRUCT(name) KWSC_ABI_STRUCT_AS(name, name)

/// Registers a nested or template-instantiated type under the manifest name
/// `alias` (the variadic tail is the type, which may contain commas).
#define KWSC_ABI_STRUCT_AS(alias, ...)                                       \
  using KwscAbi_##alias = __VA_ARGS__;                                       \
  static_assert(std::is_trivially_copyable_v<KwscAbi_##alias>,               \
                #alias " must be trivially copyable to cross an ABI "        \
                       "boundary");                                          \
  static_assert(std::is_standard_layout_v<KwscAbi_##alias>,                  \
                #alias " must be standard-layout for stable offsetof")

/// Like KWSC_ABI_STRUCT_AS, but the type is allowed interior padding (it is
/// only ever persisted from a memset-zeroed image, e.g.
/// PersistedFrameworkOptions). The probe records the padding runs instead of
/// asserting there are none.
#define KWSC_ABI_STRUCT_PADDED_AS(alias, ...)                                \
  KWSC_ABI_STRUCT_AS(alias, __VA_ARGS__)

namespace kwsc {

/// The flat containers write host-endian bytes; the formats are defined as
/// little-endian on disk. Refuse to build on exotic hosts instead of
/// silently writing byte-swapped files.
static_assert(std::endian::native == std::endian::little,
              "kwsc on-disk formats are little-endian; big-endian hosts "
              "would need byte-swapping shims in flat_arena.h");

}  // namespace kwsc

#endif  // KWSC_COMMON_ABI_H_
