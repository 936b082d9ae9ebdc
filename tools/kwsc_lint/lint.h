// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// kwsc-lint: the project-specific static analyzer.
//
// A source scanner enforcing the repo rules clang-tidy cannot express — the
// rules are about *kwsc's* contracts (deterministic queries, paired
// persistence, budgeted candidate enumeration, the threading model), not
// general C++ hygiene. The scanner deliberately stays lexical: no LLVM
// dependency, no compile database, millisecond runs, and the rules are
// written against the codebase's uniform idiom (which PR 2's format/tidy
// gates keep uniform). v2 runs in two passes — a declarations pass builds a
// lightweight semantic model of each file (what names are Mutexes, which
// identifiers hold mapped memory, what the annotations guard), and the rules
// then judge *uses* against those declarations instead of single tokens.
//
// Rules (ids as emitted in findings, `file:line: rule-id: message`):
//   determinism-clock  — no std::rand/srand/time()/clock()/steady_clock/...
//       outside src/obs/, src/common/timer.h, src/common/random.*. Queries
//       and builds must be reproducible; wall-clock reads belong to the
//       observability layer (DESIGN.md, substitution 3).
//   hash-order         — a FlatHashMap/FlatHashSet::ForEach whose lambda
//       accumulates into a vector (push_back/emplace_back) must be followed
//       by a sort: hash iteration order is seeded per-process, so unsorted
//       dumps leak nondeterminism into persisted bytes and results.
//   archive-symmetry   — a class that defines SaveFlat must define LoadFlat
//       in the same file, and the other way round: a flat container nobody
//       can map back is write-only data, and a reader with no writer cannot
//       be kept in sync with the layout it parses. (The slab sequences each
//       side issues are locked in FORMATS.lock by tools/kwsc_abi.)
//   ops-budget         — in core/ and serve/ files, a range-for over
//       ObjectId inside a
//       function taking an OpsBudget* must call Charge in its body (the
//       footnote-4 manual-termination device); audited exceptions go into
//       the allowlist file.
//   include-guard      — header guards must spell the file path
//       (src/core/orp_kw.h -> KWSC_CORE_ORP_KW_H_).
//   using-namespace    — no `using namespace` in headers.
//   copyright          — every source file opens with the copyright line.
//
// Concurrency rule pack (scoped to paths containing src/; the annotated
// vocabulary lives in common/mutex.h + common/thread_annotations.h, which
// are exempt):
//   thread-capture     — a lambda submitted to ThreadPool/TaskGroup
//       (Run/Enqueue) that captures by reference and writes the captured
//       object (assignment, ++/--, mutating method) without taking a
//       MutexLock. Elementwise writes (`slots[i] = ...`) are the sanctioned
//       disjoint-sharing idiom and do not fire.
//   concurrency-static-state — in src/core/ and src/common/, `static`
//       object declarations that are not const/constexpr, std::atomic,
//       thread_local, a Mutex, or KWSC_GUARDED_BY-annotated: silent
//       cross-thread shared state.
//   concurrency-raw-thread — std::thread/jthread, pthread_*, or detach()
//       outside common/thread_pool.*; all parallelism is fork/join on the
//       audited pool.
//   concurrency-raw-mutex — raw std synchronization types (mutex,
//       lock_guard, condition_variable, ...) outside common/mutex.h; locks
//       the annotations cannot see are locks the analysis cannot check.
//   concurrency-unguarded-mutex — a `Mutex name_;` member never named by
//       any KWSC_* annotation argument: a lock with no stated discipline.
//
// Flat-slab escape analysis (the mmap v2 format; common/flat_arena.* is
// the one place allowed to touch raw bytes):
//   flat-escape        — reinterpret_cast in a statement involving an
//       MmapFile/SlabRef/FlatArenaReader-typed identifier, or pointer
//       arithmetic on a std::byte* view; mapped bytes are read through
//       FlatArenaReader's bounds-checked accessors only.
//   flat-retain        — a member-shaped declaration (trailing '_') of type
//       FlatArenaReader or std::byte*: a retained view that can outlive the
//       mapping it points into. Store the MmapFile and re-derive.
//
// Epoch/snapshot discipline (the batch-dynamic read path; common/epoch.h
// defines the vocabulary and is exempt):
//   epoch-nonapi-access — an EpochPtr member touched through anything other
//       than .Acquire()/.Publish()/.epoch(), or a snapshot obtained from
//       Acquire() mutated in place (mutating method, member assignment)
//       while in scope. Published level sets are deep-immutable; every
//       access goes through the epoch API so concurrent readers never see
//       a half-built or shifting state (DESIGN.md §7).
//
// v3 ABI/format rule pack (scoped to paths containing src/; the vocabulary
// lives in common/abi.h + core/format_versions.h, which are exempt). These
// are the per-file fast checks backing the tree-wide FORMATS.lock drift
// gate (tools/kwsc_abi, DESIGN.md §5h):
//   abi-unregistered-struct — a struct defined in a file and reinterpreted
//       from mapped bytes there (named in a Slab<T>/SlabOk<T>/Root<T>/
//       RootOk<T> element type) without a KWSC_ABI_STRUCT registration in
//       the same file: a persisted layout the manifest cannot lock.
//   abi-raw-width      — a platform-width type spelling (int, long, size_t,
//       ...) inside a registered ABI struct's definition; persisted/wire
//       fields spell fixed-width types.
//
// Suppression, most-specific first: an inline `kwsc-lint: allow(rule-id)`
// comment on the finding's line or the line above; an allowlist entry
// (`rule-id  path-substring  [line-substring]`); the hardcoded path
// exemptions baked into individual rules.

#ifndef KWSC_TOOLS_KWSC_LINT_LINT_H_
#define KWSC_TOOLS_KWSC_LINT_LINT_H_

#include <string>
#include <vector>

namespace kwsc {
namespace lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     // e.g. "archive-symmetry"
  std::string message;  // human-readable detail

  std::string Format() const;
};

/// One allowlist entry: suppress `rule` findings in files whose path
/// contains `path_substring` and (when non-empty) whose flagged source line
/// contains `line_substring`.
struct AllowEntry {
  std::string rule;
  std::string path_substring;
  std::string line_substring;
};

/// Parses allowlist text: one entry per line, whitespace-separated fields
/// `rule path-substring [line-substring]`; '#' starts a comment.
std::vector<AllowEntry> ParseAllowlist(const std::string& text);

/// Reads the allowlist file; returns empty on a missing file.
std::vector<AllowEntry> LoadAllowlistFile(const std::string& path);

class Linter {
 public:
  explicit Linter(std::vector<AllowEntry> allowlist)
      : allowlist_(std::move(allowlist)) {}

  /// Sets the repo root; absolute paths handed to LintFile/LintTree are
  /// reported (and rule-matched) relative to it.
  void SetRoot(std::string root) { root_ = std::move(root); }

  /// Lints one file's contents. `path` is the repo-relative path (rules key
  /// off it: scope checks, guard derivation, exemptions).
  void LintSource(const std::string& path, const std::string& contents);

  /// Reads and lints one file from disk. Returns false if unreadable.
  bool LintFile(const std::string& path);

  /// Recursively lints every .h/.cc/.cpp under `dir`, skipping
  /// lint_fixtures/ (seeded-violation corpora), negative_compile/, and
  /// hidden/build directories.
  /// Paths are reported relative to the current working directory.
  bool LintTree(const std::string& dir);

  /// Findings surviving suppression, sorted by (file, line, rule).
  std::vector<Finding> TakeFindings();

 private:
  void Report(const std::string& path, int line, const std::string& rule,
              std::string message, const std::string& source_line);
  bool Suppressed(const std::string& path, const std::string& rule,
                  const std::string& source_line, bool inline_allowed) const;

  std::vector<AllowEntry> allowlist_;
  std::vector<Finding> findings_;
  std::string root_;
};

}  // namespace lint
}  // namespace kwsc

#endif  // KWSC_TOOLS_KWSC_LINT_LINT_H_
