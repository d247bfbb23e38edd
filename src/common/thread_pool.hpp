// A small fixed-size thread pool with a parallel-for primitive.
//
// The library runs on modest hardware (the paper's "device" tier); the pool
// is used to split large matrix products and embarrassingly-parallel
// per-user loops across cores. Nested parallel_for calls from inside a
// worker execute serially, so callers never deadlock by composing parallel
// code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace pelican {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers. Requires that no parallel_for is in flight — a
  /// still-running batch at destruction is a use-after-free in the making,
  /// and is asserted against (RelAssert keeps assertions on).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count), blocking until all complete. Work is
  /// divided into contiguous chunks, one per worker plus the calling thread.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  /// Submissions from different threads take the pool one at a time: a
  /// call made while another thread's loop runs waits for it. So never
  /// call parallel_for while holding a lock that a running loop's tasks
  /// may wait on; nothing in the library does (inference takes no lock).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, sized to the hardware. Lazily constructed on first
  /// use; destroyed during static teardown in reverse construction order.
  /// OWNERSHIP AND SHUTDOWN ORDER: anything that may run tasks during exit
  /// (static destructors, atexit hooks) must either have been constructed
  /// AFTER the pool's first use — C++ guarantees it is then destroyed
  /// before the pool — or go through pelican::parallel_for, which degrades
  /// to a serial loop once the pool is gone (see global_alive). TSan's
  /// exit-time checker sees a clean join either way.
  static ThreadPool& global();

  /// False once the global pool has been destroyed at process exit. The
  /// free parallel_for below checks this so late static destructors never
  /// touch a dead pool.
  [[nodiscard]] static bool global_alive() noexcept;

 private:
  struct Batch;

  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex submit_mutex_;  ///< serializes concurrent parallel_for submissions
  Mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Batch* batch_ PELICAN_GUARDED_BY(mutex_) = nullptr;  ///< current batch
  bool stop_ PELICAN_GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over the global pool. Falls back to a serial loop
/// when called from inside a pool worker (no nested parallelism) or after
/// the global pool has been torn down at exit.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace pelican
