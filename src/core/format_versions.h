// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The format-version table: one named constant per on-disk / wire format.
//
// This is the single declaration the ABI drift gate keys off (DESIGN.md
// §5h). Every `kwsc-abi: format` annotation below declares one format:
//
//   /// kwsc-abi: format <key> [tags=TAG1,TAG2] files=<substr1,substr2>
//
// `key` names the format in FORMATS.lock; `tags` lists the 4-char magic /
// family tags the covered files may spell (tools/kwsc_abi cross-checks
// every Magic("...") literal and FlatFamilyTag('.','.','.','.') in a
// covered file against this list); `files` is a comma-separated list of
// repo-relative path substrings assigning source files to the format.
// Every file contributing a manifest section (a registered struct or a
// Save/Load op sequence) must be covered by exactly one format here —
// tools/kwsc_abi refuses to emit a manifest otherwise.
//
// The workflow the abi-gate enforces: any change to a format's locked
// layout (fields, offsets, op sequences, slab sequences) must land together
// with a bump of that format's constant below, and regenerating
// FORMATS.lock (tools/run_abi.sh --update) must be committed in the same
// change. Versions only grow.
//
// Only the two stream formats, the corpus (KWCP) and the dynamic checkpoint
// (KWDY), write their constant into the file, through Magic(tag, version).
// Every index persists as a flat KWF2 container, and neither the flat
// containers nor the serve wire model carry a version field, so their
// constants exist purely as the manifest's bump target.

#ifndef KWSC_CORE_FORMAT_VERSIONS_H_
#define KWSC_CORE_FORMAT_VERSIONS_H_

#include <cstdint>

namespace kwsc {

/// kwsc-abi: format corpus tags=KWCP files=text/corpus
inline constexpr uint32_t kCorpusFormatVersion = 1;

/// kwsc-abi: format orp-kw tags=KWO2 files=core/orp_kw
inline constexpr uint32_t kOrpKwFormatVersion = 2;

/// kwsc-abi: format sp-kw-box tags=KWS2 files=core/sp_kw_box
inline constexpr uint32_t kSpKwBoxFormatVersion = 2;

/// kwsc-abi: format linf-nn tags=KWN2 files=core/nn_linf
inline constexpr uint32_t kLinfNnFormatVersion = 2;

/// kwsc-abi: format l2-nn tags=KWL2 files=core/nn_l2
inline constexpr uint32_t kL2NnFormatVersion = 1;

/// kwsc-abi: format rr-kw tags=KWR2 files=core/rr_kw
inline constexpr uint32_t kRrKwFormatVersion = 1;

/// kwsc-abi: format srp-kw tags=KWP2 files=core/srp_kw
inline constexpr uint32_t kSrpKwFormatVersion = 1;

/// kwsc-abi: format ksi tags=KWK2 files=ksi/framework_ksi
inline constexpr uint32_t kKsiFormatVersion = 1;

/// The batch-dynamic checkpoint ("KWDY" v2 stream): registry + tombstones +
/// buffer, then per present level its id list and its index's flat
/// container as one byte vector; a load attaches each level with LoadFlat
/// instead of rebuilding it (core/dynamic_index.h). v1 stored only the id
/// lists and has no reader.
/// kwsc-abi: format dynamic-checkpoint tags=KWDY files=core/dynamic_index
inline constexpr uint32_t kDynamicCheckpointFormatVersion = 2;

/// Shared persisted substructures every family embeds: the framework
/// options image, the node directory's flat form, the flat node records and
/// directory pools, rank-space images, and the geometric Pods (Point/Box)
/// slabs are built from. Bump when any shared layout changes.
/// kwsc-abi: format framework-core files=core/framework.h,core/node_directory,core/flat_format,geom/rank_space,geom/point,geom/box
inline constexpr uint32_t kFrameworkCoreFormatVersion = 2;

/// The container layers themselves: the stream archive (Magic/Pod/Vec
/// framing) the KWCP and KWDY streams use, and the v2 mmap-native flat
/// arena ("KWF2" header, 64-byte slab alignment, SlabRef framing).
/// kwsc-abi: format flat-container tags=KWF2 files=common/flat_arena,common/serialize
inline constexpr uint32_t kFlatContainerFormatVersion = 2;

/// The serve-layer wire-cost model's message framing (DESIGN.md §6c).
/// kwsc-abi: format serve-wire files=serve/merge
inline constexpr uint32_t kServeWireFormatVersion = 1;

}  // namespace kwsc

#endif  // KWSC_CORE_FORMAT_VERSIONS_H_
