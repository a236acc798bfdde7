// Tests for the persistent thread pool (util/thread_pool), whose loops
// take idle workers as helpers and share one chunk cursor, and for the
// parallel_for / parallel_for_with free functions built on it.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ocps {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  // Explicit width: auto would collapse to 1 on single-core machines and
  // never exercise the workers.
  pool.for_each(
      0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*width=*/4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, WorkerPlacementLeavesNoLastingPin) {
  // Workers move to distinct CPUs at start, then restore the full mask:
  // none may stay pinned, or the scheduler could not balance them.
  cpu_set_t process;
  ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
  ThreadPool pool(3);
  // One index per participant, each held in make() until all have
  // started, so every worker (and the caller) reports its own affinity
  // mask exactly once.
  const std::size_t expected = pool.workers() + 1;
  std::atomic<std::size_t> started{0};
  std::mutex mu;
  std::vector<cpu_set_t> masks;
  std::set<std::thread::id> threads;
  pool.for_each_with(
      0, expected,
      [&] {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
        {
          std::lock_guard<std::mutex> lock(mu);
          masks.push_back(mask);
          threads.insert(std::this_thread::get_id());
        }
        started.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < expected &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::yield();
        return char{0};
      },
      [](char&, std::size_t) {}, expected);
  EXPECT_EQ(started.load(), expected);
  EXPECT_EQ(threads.size(), expected) << "a thread ran two probes";
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
  for (const cpu_set_t& mask : masks)
    EXPECT_TRUE(CPU_EQUAL(&mask, &process)) << "worker left pinned";
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.for_each(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  pool.for_each(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  pool.for_each(0, 100, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WidthOnePinsTheLoopToTheCaller) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  pool.for_each(
      0, 500,
      [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        count.fetch_add(1);
      },
      /*width=*/1);
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(
                   0, 1000,
                   [&](std::size_t i) {
                     if (i == 617) throw std::runtime_error("boom");
                   },
                   /*width=*/3),
               std::runtime_error);
  // The pool survives and keeps working after the throw.
  std::atomic<int> count{0};
  pool.for_each(
      0, 64, [&](std::size_t) { count.fetch_add(1); }, /*width=*/3);
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedLoopsMakeProgress) {
  // A loop body issuing its own for_each must not deadlock even when all
  // workers are busy with the outer loop: the inner caller participates.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.for_each(
      0, 8,
      [&](std::size_t) {
        pool.for_each(
            0, 50, [&](std::size_t) { total.fetch_add(1); }, /*width=*/3);
      },
      /*width=*/3);
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, ConcurrentLoopsFromTwoCallersComplete) {
  // Two callers keep loops open on one pool at once, as two in-process
  // daemons sweeping together do; workers move between the open loops.
  ThreadPool pool(3);
  const std::size_t n = 5000;
  std::atomic<std::size_t> wrong{0};  // indices not run exactly once
  auto caller = [&] {
    std::vector<std::atomic<int>> hits(n);
    for (int loop = 0; loop < 20; ++loop) {
      pool.for_each(
          0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*width=*/4);
      for (auto& h : hits)
        if (h.exchange(0) != 1) wrong.fetch_add(1);
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ThreadPool, ForEachWithBuildsOneStatePerThread) {
  ThreadPool pool(3);
  std::atomic<int> states_built{0};
  struct Counter {
    std::size_t seen = 0;
  };
  const std::size_t n = 4096;
  pool.for_each_with(
      0, n,
      [&] {
        states_built.fetch_add(1);
        return Counter{};
      },
      [](Counter& c, std::size_t) { ++c.seen; }, /*width=*/4);
  // At most one state per participating thread (pool width is capped at
  // workers()+1); exact count depends on how many threads claimed chunks.
  EXPECT_GE(states_built.load(), 1);
  EXPECT_LE(states_built.load(),
            static_cast<int>(pool.workers() + 1));
}

TEST(ThreadPool, ForEachWithSumsAreComplete) {
  ThreadPool pool(3);
  std::mutex mu;
  std::size_t total = 0;
  struct Acc {
    std::mutex* mu;
    std::size_t* total;
    std::size_t local = 0;
    ~Acc() {
      std::lock_guard<std::mutex> lock(*mu);
      *total += local;
    }
  };
  const std::size_t n = 20000;
  pool.for_each_with(
      0, n, [&] { return Acc{&mu, &total}; },
      [](Acc& a, std::size_t i) { a.local += i; }, /*width=*/4);
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ThreadPool, OcpsThreadsOnePinsGlobalLoopsSerial) {
  // OCPS_THREADS caps the loop width read per loop; with 1 the global
  // parallel_for must stay on the calling thread.
  ::setenv("OCPS_THREADS", "1", 1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  parallel_for(0, 200, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    count.fetch_add(1);
  });
  ::unsetenv("OCPS_THREADS");
  EXPECT_EQ(count.load(), 200);
  EXPECT_GE(parallel_thread_count(), 1u);
}

TEST(ThreadPool, ParallelForWithPerThreadStateOnGlobalPool) {
  std::mutex mu;
  std::size_t total = 0;
  struct Acc {
    std::mutex* mu;
    std::size_t* total;
    std::size_t local = 0;
    ~Acc() {
      std::lock_guard<std::mutex> lock(*mu);
      *total += local;
    }
  };
  parallel_for_with(
      0, 5000, [&] { return Acc{&mu, &total}; },
      [](Acc& a, std::size_t) { ++a.local; });
  EXPECT_EQ(total, 5000u);
}

TEST(ThreadPool, ExceptionInStateFactoryPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each_with(
                   0, 100,
                   []() -> int { throw std::runtime_error("make failed"); },
                   [](int&, std::size_t) {}, /*width=*/3),
               std::runtime_error);
}

}  // namespace
}  // namespace ocps
