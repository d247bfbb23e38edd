#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pelican {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(3);
  try {
    pool.parallel_for(10, [](std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> total{0};
  pool.parallel_for(50, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, NestedCallsFallBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  // The inner call from a worker must not deadlock.
  pool.parallel_for(8, [&](std::size_t) {
    ThreadPool::global().parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedCallFromSubmittingThreadDoesNotDeadlock) {
  // The submitting thread participates in its own batch; a nested
  // parallel_for from ITS share (e.g. a scoring chunk whose matmul crosses
  // the kernel's parallel threshold) used to re-lock submit_mutex_ — held
  // by this very thread — and hang. It must serialize instead, exactly
  // like nesting from a spawned worker.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);

  // Sequential batches after a nested one still parallelize (the flag is
  // restored); observable only as continued progress, asserted via count.
  std::atomic<int> again{0};
  pool.parallel_for(8, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPool, GlobalPoolIsReused) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, GlobalAliveDuringNormalExecution) {
  // The tombstone only flips inside the global pool's static destructor; at
  // any point during normal execution — including before first use — the
  // free parallel_for must take the pooled path.
  EXPECT_TRUE(ThreadPool::global_alive());
  ThreadPool::global();  // force construction
  EXPECT_TRUE(ThreadPool::global_alive());
}

TEST(ThreadPool, ConcurrentSubmittersSerialize) {
  // parallel_for from many threads at once: submit_mutex_ admits one batch
  // at a time; every batch must still cover all of its indices. This is the
  // contention pattern the TSan lane leans on hardest.
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  std::vector<std::atomic<int>> counts(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counts, s] {
      pool.parallel_for(100, [&counts, s](std::size_t) { ++counts[s]; });
    });
  }
  for (auto& t : submitters) t.join();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 100);
}

TEST(ThreadPool, FreeFunctionCoversAll) {
  std::vector<std::atomic<int>> counts(257);
  parallel_for(257, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ManySequentialBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(17, [&](std::size_t) { ++total; });
    ASSERT_EQ(total.load(), 17);
  }
}

}  // namespace
}  // namespace pelican
