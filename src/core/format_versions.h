// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The format-version table: one named constant per on-disk / wire format.
//
// This is the single declaration the ABI drift gate keys off (DESIGN.md
// §5h). Every `kwsc-abi: format` annotation below declares one format:
//
//   /// kwsc-abi: format <key> [tags=TAG1,TAG2] files=<substr1,substr2>
//
// `key` names the format in FORMATS.lock; `tags` lists the 4-char family
// tags the covered files may spell (tools/kwsc_abi cross-checks every
// FlatFamilyTag('.','.','.','.') in a covered file against this list);
// `files` is a comma-separated list of repo-relative path substrings
// assigning source files to the format.
// Every file contributing a manifest section (a registered struct or a
// slab/root op sequence) must be covered by exactly one format here —
// tools/kwsc_abi refuses to emit a manifest otherwise.
//
// The workflow the abi-gate enforces: any change to a format's locked
// layout (fields, offsets, op sequences, slab sequences) must land together
// with a bump of that format's constant below, and regenerating
// FORMATS.lock (tools/run_abi.sh --update) must be committed in the same
// change. Versions only grow.
//
// No format writes its constant into a file. Everything kwsc persists is a
// flat KWF2 container (or, for the dynamic checkpoint, a sequence of them),
// and a container's family tag names its generation: a reader refuses a
// container whose tag it does not expect, so a file of another generation
// is refused by its tag, and a file written before the flat containers by
// its magic. KWC2 is the second corpus format and KWD3 the third
// checkpoint format; the index tags carry the 2 of the flat layout they
// were first written in. The constants exist purely as the manifest's bump
// target.

#ifndef KWSC_CORE_FORMAT_VERSIONS_H_
#define KWSC_CORE_FORMAT_VERSIONS_H_

#include <cstdint>

namespace kwsc {

/// The corpus (text/corpus.h): one container holding the document offsets
/// and keywords. v1 was a stream of length-prefixed documents and has no
/// reader.
/// kwsc-abi: format corpus tags=KWC2 files=text/corpus
inline constexpr uint32_t kCorpusFormatVersion = 2;

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

/// The batch-dynamic checkpoint (core/dynamic_index.h): a checkpoint
/// container (geometry, tombstones, buffer and level id lists), the
/// registry documents as one corpus container, then each present level's
/// flat container, which a load attaches with LoadFlat instead of
/// rebuilding the level. v1 and v2 were "KWDY" streams and have no reader.
/// kwsc-abi: format dynamic-checkpoint tags=KWD3 files=core/dynamic_index
inline constexpr uint32_t kDynamicCheckpointFormatVersion = 3;

/// Shared persisted substructures every family embeds: the framework
/// options image, the node directory's flat form, the flat node records and
/// directory pools, rank-space images, and the geometric Pods (Point/Box)
/// slabs are built from. Bump when any shared layout changes.
/// kwsc-abi: format framework-core files=core/framework.h,core/node_directory,core/flat_format,geom/rank_space,geom/point,geom/box
inline constexpr uint32_t kFrameworkCoreFormatVersion = 3;

/// The container layer itself: the v2 mmap-native flat arena ("KWF2"
/// header, 64-byte slab alignment, SlabRef framing). v3 has the same bytes
/// as v2; the stream archive framing it also covered is gone.
/// kwsc-abi: format flat-container tags=KWF2 files=common/flat_arena
inline constexpr uint32_t kFlatContainerFormatVersion = 3;

/// The serve-layer wire-cost model's message framing (DESIGN.md §6c).
/// kwsc-abi: format serve-wire files=serve/merge
inline constexpr uint32_t kServeWireFormatVersion = 1;

}  // namespace kwsc

#endif  // KWSC_CORE_FORMAT_VERSIONS_H_
