// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// AuditAccess: the auditor's window into index internals.
//
// The indexes keep their nodes and directories private — queries never
// need them — but the auditor must walk raw nodes, and the corruption
// injection tests must *mutate* them to prove each violation class is
// detected. Rather than widening every public API with debug accessors, each
// index befriends this single struct; everything audit-related funnels
// through here, so a grep for AuditAccess finds every spot where
// encapsulation is deliberately pierced.
//
// Accessors are templates: they instantiate only when called, so one shim
// serves every index family despite their differing internals (the member
// naming is uniform across the library: nodes_, options_, points_, ...).

#ifndef KWSC_AUDIT_AUDIT_ACCESS_H_
#define KWSC_AUDIT_AUDIT_ACCESS_H_

#include <cstdint>
#include <span>

#include "common/macros.h"

namespace kwsc {
namespace audit {

struct AuditAccess {
  // ---- Read-only views (auditor) ----

  /// The node arena, or for OrpKwIndex and SpKwBoxIndex the node records
  /// read in place from the container.
  template <typename Index>
  static const auto& Nodes(const Index& index) {
    return index.nodes_;
  }

  /// The directory T_u of one node record, as a view over the index's pools
  /// (OrpKwIndex, SpKwBoxIndex).
  template <typename Index, typename Rec>
  static auto Directory(const Index& index, const Rec& node) {
    return index.pools_.View(node);
  }

  template <typename Index>
  static const auto& Options(const Index& index) {
    return index.options_;
  }

  /// The corpus the index was built over (pointer, as stored).
  template <typename Index>
  static const auto* CorpusOf(const Index& index) {
    return index.corpus_;
  }

  /// Original-space points (SpKwBoxIndex, DimRedOrpKwIndex).
  template <typename Index>
  static const auto& Points(const Index& index) {
    return index.points_;
  }

  /// Rank-space images of the objects (OrpKwIndex).
  template <typename Index>
  static const auto& RankPoints(const Index& index) {
    return index.rank_points_;
  }

  /// The rank-space reduction tables (OrpKwIndex).
  template <typename Index>
  static const auto& RankSpaceOf(const Index& index) {
    return index.rank_;
  }

  /// The lifted underlying engine (RrKwIndex).
  template <typename Index>
  static const auto& Engine(const Index& index) {
    return *index.engine_;
  }

  /// Point-id permutation (KdTree).
  template <typename Index>
  static const auto& Ids(const Index& index) {
    return index.ids_;
  }

  template <typename Tree>
  static const auto& Intervals(const Tree& tree) {
    return tree.intervals_;
  }

  template <typename Tree>
  static auto Root(const Tree& tree) {
    return tree.root_;
  }

  // ---- Mutable views (corruption-injection tests only) ----

  /// The node arena (DimRedOrpKwIndex, KdTree, IntervalTree).
  template <typename Index>
  static auto& MutableNodes(Index* index) {
    return index->nodes_;
  }

  /// `part` — node records, or a range of a pool, as Nodes and Directory
  /// return them — made writable, for an index (OrpKwIndex, SpKwBoxIndex)
  /// whose container is its own heap buffer: the bytes a build wrote, never
  /// a mapping. Tests corrupt the index by patching its container in place.
  template <typename Index, typename T>
  static std::span<T> MutableSlab(Index* index, std::span<const T> part) {
    KWSC_CHECK(index->mmap_ != nullptr && !index->mmap_->used_mmap());
    const auto base = reinterpret_cast<uintptr_t>(index->container_.data());
    const auto at = reinterpret_cast<uintptr_t>(part.data());
    KWSC_CHECK(at >= base &&
               at - base + part.size_bytes() <= index->container_.size());
    return {const_cast<T*>(part.data()), part.size()};
  }

  // ---- Detection probes (core/contracts.h) ----
  //
  // The accessors above deduce their return type from the function body, so
  // naming them in a requires-expression for a type *without* the member is
  // a hard error, not a failed constraint. These probes move the member
  // access into the declared return type, where substitution failure is in
  // the immediate context: `requires { AuditAccess::NodesProbe(index); }`
  // is cleanly false for an unauditable type. Friendship covers the return
  // type, so the probes see the same private members the accessors do.

  template <typename Index>
  static auto NodesProbe(const Index& index) -> decltype((index.nodes_)) {
    return index.nodes_;
  }

  template <typename Index>
  static auto OptionsProbe(const Index& index) -> decltype((index.options_)) {
    return index.options_;
  }

  template <typename Index>
  static auto EngineProbe(const Index& index) -> decltype((*index.engine_)) {
    return *index.engine_;
  }
};

}  // namespace audit
}  // namespace kwsc

#endif  // KWSC_AUDIT_AUDIT_ACCESS_H_
