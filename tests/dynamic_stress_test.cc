// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Thread-sanitizer stress for the batch-dynamic layer: one writer thread
// applying batched inserts and tombstone deletes (with background merges on
// a shared ThreadPool), several reader threads querying epoch snapshots the
// whole time, plus an auditor thread exercising DebugAuditView mid-merge.
// Runs under the tsan preset (see CMakePresets.json); the correctness
// assertion here is weaker than dynamic_index_test's exact-answer checks —
// readers verify internal consistency of whatever snapshot they observe —
// because the point of this binary is the absence of data-race reports.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "test_util.h"

namespace kwsc {
namespace {

TEST(DynamicStress, ConcurrentBatchedUpdatesQueriesAndMerges) {
  ThreadPool merge_pool(2);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/16, &merge_pool);

  constexpr int kRounds = 60;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    Rng rng(4242);
    std::vector<ObjectId> live;
    for (int round = 0; round < kRounds; ++round) {
      const size_t batch = 1 + rng.NextBounded(24);
      std::vector<Point<2>> geoms;
      std::vector<Document> docs;
      for (size_t i = 0; i < batch; ++i) {
        geoms.push_back({{rng.NextDouble(), rng.NextDouble()}});
        docs.push_back(Document{static_cast<KeywordId>(rng.NextBounded(6)),
                                static_cast<KeywordId>(6 + rng.NextBounded(6))});
      }
      const ObjectId first = dynamic.InsertBatch(geoms, std::move(docs));
      for (size_t i = 0; i < batch; ++i) {
        live.push_back(first + static_cast<ObjectId>(i));
      }
      if (round % 3 == 2 && live.size() > 4) {
        std::vector<ObjectId> doomed;
        for (size_t i = 0; i < live.size(); ++i) {
          if (rng.NextBounded(6) == 0) doomed.push_back(live[i]);
        }
        dynamic.DeleteBatch(doomed);
        for (ObjectId id : doomed) {
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(777 + r);
      uint64_t queries = 0;
      while (!done.load(std::memory_order_acquire) || queries < 32) {
        Box<2> q;
        for (int dim = 0; dim < 2; ++dim) {
          const double a = rng.NextDouble();
          const double b = rng.NextDouble();
          q.lo[dim] = std::min(a, b);
          q.hi[dim] = std::max(a, b);
        }
        const std::vector<KeywordId> kws = {
            static_cast<KeywordId>(rng.NextBounded(6)),
            static_cast<KeywordId>(6 + rng.NextBounded(6))};
        const std::vector<ObjectId> got = dynamic.Query(q, kws);
        // Snapshot consistency: the snapshot queried was published no later
        // than this num_objects() read, and ids are dense and never reused.
        const uint64_t upper = dynamic.num_objects();
        for (ObjectId id : got) EXPECT_LT(id, upper);
        ++queries;
      }
    });
  }

  std::thread auditor([&] {
    int audits = 0;
    while (!done.load(std::memory_order_acquire) || audits < 8) {
      testing::ExpectAuditClean(dynamic);  // Safe mid-merge by design.
      ++audits;
      std::this_thread::yield();
    }
  });

  writer.join();
  for (std::thread& t : readers) t.join();
  auditor.join();

  dynamic.WaitQuiescent();
  EXPECT_FALSE(dynamic.MergeInFlight());
  testing::ExpectAuditClean(dynamic);
  EXPECT_GT(dynamic.num_objects(), 0u);
}

}  // namespace
}  // namespace kwsc
