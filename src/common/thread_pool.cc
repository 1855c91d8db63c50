#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace phasorwatch {
namespace {

// [[maybe_unused]]: with PW_OBS_DISABLED the macro expansions that call
// this (and the start-time captures) compile away.
[[maybe_unused]] double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Runs one ParallelFor iteration body, never letting an exception
// escape across a thread boundary.
Status RunBody(const std::function<Status(size_t)>& body, size_t i) {
  try {
    return body(i);
  } catch (const std::exception& e) {
    return Status::Internal("ParallelFor body threw: " + std::string(e.what()));
  } catch (...) {
    return Status::Internal("ParallelFor body threw a non-std exception");
  }
}

// Shared state of one ParallelFor call. Runner tasks hold it via
// shared_ptr: a runner that wakes up after the loop already finished
// only touches `next` (the claim counter), never `body`.
struct ForState {
  ForState(size_t n_in, const std::function<Status(size_t)>* body_in)
      : n(n_in), body(body_in) {}

  const size_t n;
  const std::function<Status(size_t)>* const body;
  std::atomic<size_t> next{0};

  Mutex mu{lock_rank::kParallelFor};
  CondVar done_cv;
  size_t done PW_GUARDED_BY(mu) = 0;
  size_t error_index PW_GUARDED_BY(mu) = 0;
  /// First (lowest-index) failure.
  Status error PW_GUARDED_BY(mu);

  // Claims and runs iterations until the range is exhausted.
  void Drain() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      [[maybe_unused]] auto start = std::chrono::steady_clock::now();
      Status status = RunBody(*body, i);
      PW_OBS_QUANTILE_RECORD("pool.task_us", ElapsedUs(start));
      PW_OBS_COUNTER_INC("pool.tasks_executed");
      MutexLock lock(mu);
      if (!status.ok() && (error.ok() || i < error_index)) {
        error = std::move(status);
        error_index = i;
      }
      if (++done == n) done_cv.NotifyAll();
    }
  }
};

}  // namespace

size_t ResolveParallelism(size_t requested) {
  if (const char* env = std::getenv("PW_THREADS")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') requested = static_cast<size_t>(v);
  }
  if (requested == 0) {
    requested = std::thread::hardware_concurrency();
    if (requested == 0) requested = 1;
  }
  return requested;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // degree 1: caller-only, no workers
  workers_.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  PW_OBS_GAUGE_SET("pool.workers", workers_.size());
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Workers drain the queue before exiting (see WorkerLoop), but a
  // degree-1 pool has none; any tasks submitted to it already ran
  // inline, so the queue is empty either way.
}

void ThreadPool::Submit(std::function<void()> task) {
  PW_OBS_COUNTER_INC("pool.tasks_submitted");
  if (workers_.empty()) {
    // Degree-1 pool: run inline; Submit is still "eventually runs".
    try {
      task();
    } catch (...) {
      // Fire-and-forget contract: exceptions end with the task.
    }
    PW_OBS_COUNTER_INC("pool.tasks_executed");
    return;
  }
  size_t depth;
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  PW_OBS_GAUGE_SET("pool.queue_depth", depth);
  work_cv_.NotifyOne();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    PW_OBS_GAUGE_SET("pool.queue_depth", queue_.size());
  }
  [[maybe_unused]] auto start = std::chrono::steady_clock::now();
  try {
    task();
  } catch (...) {
    // Fire-and-forget tasks swallow exceptions; ParallelFor bodies
    // convert them to Status before they reach this frame.
  }
  PW_OBS_QUANTILE_RECORD("pool.task_us", ElapsedUs(start));
  PW_OBS_COUNTER_INC("pool.tasks_executed");
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    {
      // Explicit predicate loop (not a wait-with-lambda): the lambda
      // body would be opaque to the thread-safety analysis.
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_ && queue_.empty()) return;
    }
    RunOneTask();
  }
}

Status ThreadPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& body) {
  if (n == 0) return Status::OK();
  PW_OBS_COUNTER_INC("pool.parallel_for_calls");

  if (workers_.empty() || n == 1) {
    // Serial path. Still runs every iteration and reports the
    // lowest-index failure, so the Status contract matches the
    // parallel path exactly.
    Status first_error;
    for (size_t i = 0; i < n; ++i) {
      Status status = RunBody(body, i);
      if (!status.ok() && first_error.ok()) first_error = std::move(status);
      PW_OBS_COUNTER_INC("pool.tasks_executed");
    }
    return first_error;
  }

  auto state = std::make_shared<ForState>(n, &body);

  // One runner per worker (capped by the iteration count); the calling
  // thread is the final runner. Iterations are claimed one at a time
  // from the atomic counter, which load-balances heterogeneous case
  // costs (e.g. converging vs. diverging power-flow cases).
  size_t runners = std::min(workers_.size(), n - 1);
  for (size_t r = 0; r < runners; ++r) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();

  MutexLock lock(state->mu);
  while (state->done != state->n) state->done_cv.Wait(state->mu);
  return state->error;
}

}  // namespace phasorwatch
