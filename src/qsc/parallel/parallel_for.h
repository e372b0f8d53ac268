// Deterministic data-parallel loops over a ThreadPool (see
// thread_pool.h for the determinism contract). Two shapes:
//
//  - ParallelFor: independent per-index work; indices may run in any
//    order, so each index must write only state private to it.
//  - ParallelOrderedFor: concurrent work(i) with a serialized commit(i)
//    phase that runs strictly in increasing i — equivalent to the
//    sequential `for i { work(i); commit(i); }` whenever work only reads
//    shared state and all order-sensitive mutation lives in commit. This
//    is the "score in parallel, commit in order" primitive behind the
//    centrality pivot fan-out.
//
// Both treat a null pool (or a 1-thread pool) as the sequential path
// with zero synchronization overhead.

#ifndef QSC_PARALLEL_PARALLEL_FOR_H_
#define QSC_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "qsc/parallel/thread_pool.h"

namespace qsc {

// Chunk boundaries over [0, size) with `grain` indices per chunk (the
// last chunk may be short). A pure function of (size, grain): the worker
// count never shifts a boundary, so per-chunk work is the same for every
// pool size.
struct ChunkGrid {
  int64_t size = 0;
  int64_t grain = 1;

  int64_t num_chunks() const { return (size + grain - 1) / grain; }
  int64_t begin(int64_t chunk) const { return chunk * grain; }
  int64_t end(int64_t chunk) const {
    return std::min(size, (chunk + 1) * grain);
  }
};

// Calls fn(i) for every i in [0, size), `grain` consecutive indices per
// task. fn may run concurrently and out of order: it must only write
// state owned by index i.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int64_t size, int64_t grain, Fn&& fn) {
  if (size <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int64_t i = 0; i < size; ++i) fn(i);
    return;
  }
  const ChunkGrid grid{size, std::max<int64_t>(1, grain)};
  pool->RunChunks(grid.num_chunks(), [&](int64_t chunk) {
    const int64_t end = grid.end(chunk);
    for (int64_t i = grid.begin(chunk); i < end; ++i) fn(i);
  });
}

// Concurrent work(i) over [0, size) with commit(i) serialized strictly in
// increasing i (each commit runs on the thread that ran its work).
// Equivalent to the sequential loop `for i { work(i); commit(i); }` when
// work(i) only reads shared state and writes i-private state.
// Deadlock-free because ThreadPool::RunChunks claims indices in
// increasing order: the owner of the lowest in-flight index never waits.
template <typename WorkFn, typename CommitFn>
void ParallelOrderedFor(ThreadPool* pool, int64_t size, WorkFn&& work,
                        CommitFn&& commit) {
  if (size <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || size == 1 ||
      pool->InWorker()) {
    for (int64_t i = 0; i < size; ++i) {
      work(i);
      commit(i);
    }
    return;
  }
  std::mutex mutex;
  std::condition_variable turn_cv;
  int64_t next_commit = 0;
  pool->RunChunks(size, [&](int64_t i) {
    work(i);
    {
      std::unique_lock<std::mutex> lock(mutex);
      turn_cv.wait(lock, [&] { return next_commit == i; });
      commit(i);
      ++next_commit;
    }
    turn_cv.notify_all();
  });
}

}  // namespace qsc

#endif  // QSC_PARALLEL_PARALLEL_FOR_H_
