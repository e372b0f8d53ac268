// qsc/parallel: the thread pool and the deterministic loop primitives.
// The load-bearing properties are (1) every index runs exactly once, (2)
// ParallelOrderedFor produces bit-identical results for every pool size,
// and (3) reentrant and concurrent submissions neither deadlock nor lose
// work. The CI `thread` sanitizer
// job runs this binary under TSan (ParallelSuites in .github/workflows).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "qsc/parallel/parallel_for.h"
#include "qsc/parallel/thread_pool.h"

namespace qsc {
namespace {

TEST(ParallelThreadPoolTest, RunChunksExecutesEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.RunChunks(257, [&](int64_t chunk) { ++hits[chunk]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelThreadPoolTest, ZeroAndNegativeChunkCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.RunChunks(0, [&](int64_t) { ++calls; });
  pool.RunChunks(-3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int64_t> order;
  pool.RunChunks(5, [&](int64_t chunk) { order.push_back(chunk); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelThreadPoolTest, ReentrantSubmissionRunsInlineInOrder) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  std::atomic<int> ordered{1};
  pool.RunChunks(8, [&](int64_t) {
    // A nested RunChunks from a participating thread must execute inline
    // and in index order rather than deadlocking on busy workers.
    int64_t last = -1;
    bool in_order = true;
    pool.RunChunks(4, [&](int64_t inner) {
      in_order = in_order && inner == last + 1;
      last = inner;
      ++inner_total;
    });
    if (!in_order) ordered.store(0);
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
  EXPECT_EQ(ordered.load(), 1);
}

TEST(ParallelThreadPoolTest, SubmitterRunChunksNestInlineOnItsThread) {
  // A nested RunChunks from a chunk the submitting thread runs must stay
  // on that thread, as it does on a worker, even with idle workers. Four
  // outer chunks on four threads: each worker holds its chunk until the
  // submitter has entered one (so the submitter must claim one), then
  // returns and goes idle while the submitter's inner chunks run.
  ThreadPool pool(4);
  constexpr int64_t kInner = 16;
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<bool> submitter_entered{false};
  std::vector<std::thread::id> inner_thread(kInner);
  pool.RunChunks(4, [&](int64_t) {
    if (std::this_thread::get_id() != submitter) {
      while (!submitter_entered.load()) std::this_thread::yield();
      return;
    }
    submitter_entered.store(true);
    pool.RunChunks(kInner, [&](int64_t inner) {
      inner_thread[inner] = std::this_thread::get_id();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  });
  ASSERT_TRUE(submitter_entered.load());
  for (int64_t inner = 0; inner < kInner; ++inner) {
    EXPECT_EQ(inner_thread[inner], submitter) << "inner chunk " << inner;
  }
}

TEST(ParallelThreadPoolTest, ConcurrentExternalSubmissionsAllComplete) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int64_t kChunks = 100;
  std::vector<std::atomic<int64_t>> totals(kSubmitters);
  for (auto& t : totals) t.store(0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.RunChunks(kChunks, [&, s](int64_t chunk) {
        totals[s].fetch_add(chunk + 1);
      });
    });
  }
  for (std::thread& t : submitters) t.join();
  for (const auto& t : totals) {
    EXPECT_EQ(t.load(), kChunks * (kChunks + 1) / 2);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kSize = 10001;
  std::vector<int> hits(kSize, 0);
  // Each index writes only its own slot, so no synchronization is needed.
  ParallelFor(&pool, kSize, /*grain=*/64, [&](int64_t i) { ++hits[i]; });
  for (int64_t i = 0; i < kSize; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, NullPoolAndEmptyRangesAreSequentialNoOps) {
  std::vector<int64_t> order;
  ParallelFor(nullptr, 4, 1, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3}));
  ParallelFor(nullptr, 0, 1, [&](int64_t) { FAIL(); });
  ThreadPool pool(2);
  ParallelFor(&pool, -5, 16, [&](int64_t) { FAIL(); });
}

TEST(ParallelForTest, WorksFromInsideAPoolWorker) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 6;
  constexpr int64_t kInner = 257;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.RunChunks(kOuter, [&](int64_t outer) {
    ParallelFor(&pool, kInner, /*grain=*/16,
                [&](int64_t i) { ++hits[outer][i]; });
  });
  for (int64_t outer = 0; outer < kOuter; ++outer) {
    for (int64_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(hits[outer][i], 1) << outer << "/" << i;
    }
  }
}

TEST(ChunkGridTest, BoundariesDependOnlyOnSizeAndGrain) {
  const ChunkGrid grid{100, 32};
  ASSERT_EQ(grid.num_chunks(), 4);
  EXPECT_EQ(grid.begin(0), 0);
  EXPECT_EQ(grid.end(0), 32);
  EXPECT_EQ(grid.begin(3), 96);
  EXPECT_EQ(grid.end(3), 100);  // short tail chunk
  const ChunkGrid exact{64, 32};
  EXPECT_EQ(exact.num_chunks(), 2);
  EXPECT_EQ(exact.end(1), 64);
}

TEST(ParallelOrderedForTest, CommitsRunStrictlyInIndexOrder) {
  ThreadPool pool(8);
  constexpr int64_t kSize = 500;
  std::vector<int64_t> commit_order;
  std::vector<int> worked(kSize, 0);
  ParallelOrderedFor(
      &pool, kSize, [&](int64_t i) { worked[i] = 1; },
      // commit is serialized by the primitive: plain vector push is safe.
      [&](int64_t i) { commit_order.push_back(i); });
  ASSERT_EQ(commit_order.size(), static_cast<size_t>(kSize));
  for (int64_t i = 0; i < kSize; ++i) {
    EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(worked[i], 1);
  }
}

// The sequential path (null or one-thread pool) is exactly the loop
// `for i { work(i); commit(i); }`: each commit runs before the next work.
TEST(ParallelOrderedForTest, SequentialPathInterleavesWorkAndCommit) {
  std::vector<int64_t> trace;  // work(i) logs i, commit(i) logs ~i
  auto run = [&](ThreadPool* pool, int64_t size) {
    trace.clear();
    ParallelOrderedFor(
        pool, size, [&](int64_t i) { trace.push_back(i); },
        [&](int64_t i) { trace.push_back(~i); });
  };
  const std::vector<int64_t> want = {0, ~int64_t{0}, 1, ~int64_t{1},
                                     2, ~int64_t{2}};
  run(nullptr, 3);
  EXPECT_EQ(trace, want);
  ThreadPool single(1);
  run(&single, 3);
  EXPECT_EQ(trace, want);
  run(nullptr, 0);
  EXPECT_TRUE(trace.empty());
  ThreadPool pool(4);
  run(&pool, -3);
  EXPECT_TRUE(trace.empty());
}

TEST(ParallelOrderedForTest, OrderedFloatAccumulationBitIdentical) {
  constexpr int64_t kSize = 300;
  auto run = [&](ThreadPool* pool) {
    std::vector<double> contributions(kSize);
    double acc = 0.0;
    ParallelOrderedFor(
        pool, kSize,
        [&](int64_t i) {
          contributions[i] = std::sin(static_cast<double>(i)) * 1e-3;
        },
        [&](int64_t i) { acc += contributions[i]; });
    return acc;
  };
  const double reference = run(nullptr);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ASSERT_EQ(run(&pool), reference) << "threads=" << threads;
  }
}

TEST(ParallelOrderedForTest, WorksFromInsideAPoolWorker) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.RunChunks(6, [&](int64_t) {
    std::vector<int64_t> order;
    ParallelOrderedFor(
        &pool, 5, [](int64_t) {}, [&](int64_t i) { order.push_back(i); });
    if (order == std::vector<int64_t>{0, 1, 2, 3, 4}) ++total;
  });
  EXPECT_EQ(total.load(), 6);
}

}  // namespace
}  // namespace qsc
