// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The traced run's span log. Spans are recorded by the benchmark around its
// calls into the library's public functions (nothing inside the library is
// instrumented), kept in memory, and written out once the run ends. Each
// span has a name, start, end, the span that caused it, and the request it
// belongs to; a span's self time is its duration minus the time its child
// spans cover. Everything runs on one thread, so children of one parent
// never overlap and the subtraction is exact.

#ifndef KWSC_PERFBENCH_SPANS_H_
#define KWSC_PERFBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/timer.h"

namespace kwsc::perfbench {

/// Nanoseconds since the run's first call, on the library's monotonic clock.
inline int64_t NowNanos() {
  static const WallTimer origin;
  return origin.ElapsedNanos();
}

/// Keeps `value` alive and computed before the next timer read: without it
/// the compiler may move a pure inline call (ToRankBox, say) across the
/// clock call that is meant to close its span.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

enum SpanName : uint8_t {
  kSetup,            // One set-up repetition (root).
  kGenerate,         // Input generation.
  kBuild,            // OrpKwIndex constructor.
  kSaveFlat,         // OrpKwIndex::SaveFlat into a file.
  kSaveCorpus,       // Corpus::Save (and the points file) into files.
  kFlush,            // fsync of the written files.
  kPreload,          // DynamicIndex::InsertBatch of the preload.
  kCheckpointSave,   // DynamicIndex::SaveCheckpoint into a file.
  kOpen,             // One open repetition (root).
  kCorpusLoad,       // Corpus::Load (and the points file).
  kFlatOpen,         // MmapFile::Open + OrpKwIndex::LoadFlat.
  kCheckpointLoad,   // DynamicIndex::LoadCheckpoint.
  kPlan,             // ShardRouter::Plan.
  kReplicaBuild,     // Coordinator constructor (every replica's build).
  kRequest,          // One request of the timed stream (root).
  kCanonicalize,     // CanonicalizeQueryKeywords.
  kRankBox,          // OrpKwIndex::ToRankBox.
  kDescend,          // OrpKwIndex::QueryRankEmit.
  kDynamicQuery,     // DynamicIndex::Query.
  kDynamicInsert,    // DynamicIndex::InsertBatch.
  kDynamicDelete,    // DynamicIndex::DeleteBatch.
  kCoordinatorRun,   // Coordinator::Run over one query.
  kVerify,           // Corpus::ContainsAll over one query's verify pairs.
  kNumSpanNames,
};

inline const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "setup",          "generate",       "core.build",
      "core.save_flat", "text.save",      "flush",
      "core.preload",   "core.checkpoint_save",
      "open",           "text.corpus_load", "common.flat_open",
      "core.checkpoint_load", "serve.plan", "serve.replica_build",
      "request",        "core.canonicalize", "geom.rank_box",
      "core.descend",   "core.dynamic_query", "core.dynamic_insert",
      "core.dynamic_delete", "serve.run", "text.contains_all",
  };
  return kNames[name];
}

struct Span {
  SpanName name;
  int32_t parent;    // Index of the causing span in the log; -1 for a root.
  uint32_t request;  // Shared by every span of one request.
  int64_t start_ns;
  int64_t end_ns;
};

/// Append-only span log with a fixed capacity. A disabled log records
/// nothing, so the untraced run pays one branch per boundary.
class SpanLog {
 public:
  SpanLog(bool enabled, size_t capacity)
      : enabled_(enabled), capacity_(capacity) {
    if (enabled_) spans_.reserve(capacity_);
  }

  bool enabled() const { return enabled_; }

  /// Room left for `n` more spans (the traced loops stop at a pass
  /// boundary before the log overflows).
  bool HasRoom(size_t n) const { return spans_.size() + n <= capacity_; }

  /// Opens a span and returns its handle (-1 when disabled or full).
  int32_t Begin(SpanName name, int32_t parent, uint32_t request) {
    if (!enabled_ || spans_.size() == capacity_) return -1;
    spans_.push_back(Span{name, parent, request, NowNanos(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t handle) {
    if (handle >= 0) spans_[static_cast<size_t>(handle)].end_ns = NowNanos();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<int64_t> SelfNanos() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  /// Self times (ns) of every span named `name`, in recording order.
  std::vector<double> SelfNanosOf(SpanName name) const {
    const std::vector<int64_t> self = SelfNanos();
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(static_cast<double>(self[i]));
    }
    return out;
  }

  /// Writes one tab-separated line per span. Returns false on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<int64_t> self = SelfNanos();
    std::fprintf(out,
                 "span\tname\tparent\trequest\tstart_ns\tend_ns\tself_ns\n");
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%s\t%d\t%u\t%lld\t%lld\t%lld\n", i,
                   SpanNameString(s.name), s.parent, s.request,
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  size_t capacity_;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int32_t parent, uint32_t request)
      : log_(log), handle_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t handle() const { return handle_; }

 private:
  SpanLog* log_;
  int32_t handle_;
};

}  // namespace kwsc::perfbench

#endif  // KWSC_PERFBENCH_SPANS_H_
