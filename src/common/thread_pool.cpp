#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>

namespace pelican {

namespace {
thread_local bool inside_pool_worker = false;

/// Set (before the pool's members are torn down) when the global pool's
/// static destructor runs. Trivially destructible, so it is safe to read
/// from any later static destructor.
std::atomic<bool> global_pool_destroyed{false};
}  // namespace

/// One parallel_for invocation: a shared work counter plus completion state.
struct ThreadPool::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};
  Mutex error_mutex;
  std::exception_ptr error PELICAN_GUARDED_BY(error_mutex);

  void run_share() {
    constexpr std::size_t kChunk = 1;
    for (;;) {
      const std::size_t i = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*fn)(i);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }

  [[nodiscard]] std::exception_ptr take_error() {
    const MutexLock lock(error_mutex);
    return error;
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every batch, so spawn one fewer.
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    // No parallel_for may outlive the pool: a batch still installed here
    // means a submitting thread is about to touch freed pool state.
    assert(batch_ == nullptr && "ThreadPool destroyed with a batch in flight");
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  inside_pool_worker = true;
  for (;;) {
    Batch* batch = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stop_ && batch_ == nullptr) lock.wait(wake_);
      if (stop_) return;
      batch = batch_;
      batch->active.fetch_add(1, std::memory_order_relaxed);
    }
    batch->run_share();
    {
      const MutexLock lock(mutex_);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
    }
    done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1 || inside_pool_worker) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const MutexLock submit_lock(submit_mutex_);
  Batch batch;
  batch.count = count;
  batch.fn = &fn;
  {
    const MutexLock lock(mutex_);
    batch_ = &batch;
  }
  wake_.notify_all();

  // The caller participates, and while it does it counts as a pool worker:
  // a nested parallel_for from inside its share must serialize (exactly as
  // it does for the spawned workers) instead of re-locking submit_mutex_ —
  // which this thread already holds — and deadlocking. Restore on exit so
  // sequential parallel_for calls from this thread still parallelize.
  const bool was_inside = inside_pool_worker;
  inside_pool_worker = true;
  batch.run_share();
  inside_pool_worker = was_inside;

  {
    MutexLock lock(mutex_);
    batch_ = nullptr;  // stop new workers from joining this batch
    while (batch.active.load(std::memory_order_acquire) != 0) {
      lock.wait(done_);
    }
  }
  if (auto error = batch.take_error()) std::rethrow_exception(error);
}

namespace {
/// Holder whose destructor flips the tombstone BEFORE the pool itself is
/// destroyed (destructor bodies run before member destruction), so any
/// static destructor sequenced after this one observes global_alive() ==
/// false and takes the serial path instead of touching a dead pool.
struct GlobalPool {
  ThreadPool pool;
  ~GlobalPool() { global_pool_destroyed.store(true, std::memory_order_release); }
};
}  // namespace

ThreadPool& ThreadPool::global() {
  static GlobalPool holder;
  return holder.pool;
}

bool ThreadPool::global_alive() noexcept {
  return !global_pool_destroyed.load(std::memory_order_acquire);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (!ThreadPool::global_alive()) {
    // Exit-time caller (a static destructor outliving the pool): run the
    // loop serially rather than resurrecting or racing pool teardown.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::global().parallel_for(count, fn);
}

}  // namespace pelican
