// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Assertion and annotation macros used across the library.
//
// The library follows a "checks, not exceptions" policy on its hot paths:
// construction-time validation uses KWSC_CHECK (always on), while per-element
// invariants on query paths use KWSC_DCHECK (debug builds only).

#ifndef KWSC_COMMON_MACROS_H_
#define KWSC_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

/// Aborts with a message when `condition` is false. Enabled in all builds;
/// use for cheap validation of user-supplied arguments and construction-time
/// invariants.
#define KWSC_CHECK(condition)                                                    \
  do {                                                                           \
    if (!(condition)) {                                                          \
      std::fprintf(stderr, "KWSC_CHECK failed at %s:%d: %s\n", __FILE__,         \
                   __LINE__, #condition);                                        \
      std::abort();                                                              \
    }                                                                            \
  } while (false)

/// Like KWSC_CHECK but with a custom printf-style message appended.
#define KWSC_CHECK_MSG(condition, ...)                                           \
  do {                                                                           \
    if (!(condition)) {                                                          \
      std::fprintf(stderr, "KWSC_CHECK failed at %s:%d: %s: ", __FILE__,         \
                   __LINE__, #condition);                                        \
      std::fprintf(stderr, __VA_ARGS__);                                         \
      std::fprintf(stderr, "\n");                                                \
      std::abort();                                                              \
    }                                                                            \
  } while (false)

/// Debug-only assertion for per-element invariants on query paths.
#ifdef NDEBUG
#define KWSC_DCHECK(condition) \
  do {                         \
  } while (false)
#else
#define KWSC_DCHECK(condition) KWSC_CHECK(condition)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define KWSC_PREDICT_TRUE(x) (__builtin_expect(!!(x), 1))
#define KWSC_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
/// Read-prefetch with high temporal locality; used on tree descent to pull
/// the child node's cache line while the current node's directory is being
/// probed. A no-op hint: never changes semantics.
#define KWSC_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
/// Inlines a small function into every caller, whatever inlining budget the
/// translation unit has left. For the query descent's per-node and
/// per-candidate steps: the descent reaches them through substrate lambdas,
/// and a large unit can spend its growth budget before those are inlined,
/// leaving an out-of-line call on every node.
#define KWSC_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define KWSC_PREDICT_TRUE(x) (x)
#define KWSC_PREDICT_FALSE(x) (x)
#define KWSC_PREFETCH(addr) ((void)0)
#define KWSC_ALWAYS_INLINE inline
#endif

#endif  // KWSC_COMMON_MACROS_H_
