#include "qsc/parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "qsc/util/check.h"

namespace qsc {
namespace {

// The pool the calling thread is running chunks of: a worker's own pool,
// or the pool a submitter is participating in (nullptr otherwise). Lets
// RunChunks detect reentrant submissions and degrade them to inline
// execution instead of deadlocking on a fully-occupied pool.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

// One chunked loop in flight. Workers and the submitter claim chunk
// indices from `next`; the submitter blocks until `done` reaches
// `num_chunks`. Held by shared_ptr from the queue, every participating
// worker, and the submitter, so a worker observing an exhausted job after
// the submitter returned only ever touches live memory.
struct ThreadPool::Job {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};

  std::mutex done_mutex;
  std::condition_variable done_cv;
  int64_t done = 0;  // guarded by done_mutex

  // Claims and runs chunks until none remain. Chunk indices are handed
  // out in increasing order (fetch_add), the invariant the ordered-commit
  // primitives rely on.
  void RunClaimedChunks() {
    for (;;) {
      const int64_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      (*fn)(chunk);
      bool complete;
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        complete = ++done == num_chunks;
      }
      if (complete) done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorker() const { return tls_worker_pool == this; }

void ThreadPool::RunChunks(int64_t num_chunks,
                           const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (num_threads_ <= 1 || num_chunks == 1 || InWorker()) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QSC_CHECK(!stop_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  // The submitter participates, and while it runs chunks it counts as a
  // worker: a nested RunChunks from one of its chunks runs inline and in
  // order, as it would on a worker.
  const ThreadPool* const outer_pool = tls_worker_pool;
  tls_worker_pool = this;
  job->RunClaimedChunks();
  tls_worker_pool = outer_pool;

  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&] { return job->done == job->num_chunks; });
  }
  {
    // Workers that saw the job exhausted may have dropped it already.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) jobs_.erase(it);
  }
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) {
      if (stop_) return;
      continue;
    }
    std::shared_ptr<Job> job = jobs_.front();
    if (job->next.load(std::memory_order_relaxed) >= job->num_chunks) {
      // Exhausted but not yet reaped by its submitter; drop it so the
      // queue cannot spin on it. (Running chunks keep the Job alive
      // through their own shared_ptr.)
      jobs_.erase(jobs_.begin());
      continue;
    }
    lock.unlock();
    job->RunClaimedChunks();
    lock.lock();
  }
}

namespace {

std::unique_ptr<ThreadPool>& DefaultPoolSlot() {
  static std::unique_ptr<ThreadPool>* slot =
      new std::unique_ptr<ThreadPool>(std::make_unique<ThreadPool>(1));
  return *slot;
}

}  // namespace

ThreadPool* DefaultPool() { return DefaultPoolSlot().get(); }

void SetDefaultPoolThreads(int num_threads) {
  DefaultPoolSlot() = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace qsc
