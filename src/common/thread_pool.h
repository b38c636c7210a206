// Minimal fixed-size thread pool for the parallel diagram constructions
// (the direction the paper's journal extension develops). Tasks are
// fire-and-forget; WaitIdle() barriers until everything submitted so far has
// run.
#ifndef SKYDIA_SRC_COMMON_THREAD_POOL_H_
#define SKYDIA_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/annotations.h"

namespace skydia {

/// Fixed-size worker pool. Exceptions must not escape tasks (the library is
/// exception-free); a task that throws terminates the process.
///
/// Synchronization protocol, compiler-checked via the SKYDIA_GUARDED_BY
/// annotations below (a Clang -Wthread-safety build rejects any access
/// outside `mu_`; the TSan CI job cross-checks the dynamic side via
/// tests/core/concurrency_stress_test.cc): every shared member — `queue_`,
/// `active_`, `shutdown_` — is read and written only under `mu_`. Task side
/// effects are published to the caller through a mutex handshake: a worker
/// finishes a task, then takes `mu_` to decrement `active_`; WaitIdle()
/// observes `active_ == 0` under the same mutex, so everything the task wrote
/// happens-before anything the caller reads after WaitIdle() returns. Tasks
/// themselves synchronize with nothing — they must write disjoint data or
/// bring their own atomics.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool() SKYDIA_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task.
  void Submit(std::function<void()> task) SKYDIA_EXCLUDES(mu_);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle() SKYDIA_EXCLUDES(mu_);

  /// Convenience: runs fn(i) for i in [0, count) across the pool and waits.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn)
      SKYDIA_EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t worker_index) SKYDIA_EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_ SKYDIA_GUARDED_BY(mu_);
  size_t active_ SKYDIA_GUARDED_BY(mu_) = 0;
  bool shutdown_ SKYDIA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only by the constructor
};

}  // namespace skydia

#endif  // SKYDIA_SRC_COMMON_THREAD_POOL_H_
