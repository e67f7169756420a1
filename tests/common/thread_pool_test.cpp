// ThreadPool: top-level chunking and nested (reentrant) jobs.
//
// The contract under test:
//   - a top-level call splits [begin, end) into grain-sized chunks with
//     fixed indices and runs them on the workers only;
//   - a call from one of the pool's own workers publishes a nested job:
//     idle workers join it, the caller drains it too (so it finishes when
//     every other worker is busy), and two workers may run nested jobs at
//     once;
//   - an exception from a nested chunk reaches only that job's caller, and
//     the pool stays usable afterwards.
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.hpp"

namespace kconv {
namespace {

using Clock = std::chrono::steady_clock;

/// Spins until `pred` holds or a generous deadline passes; returns whether
/// it held. Tests use it where a missing helper would otherwise hang.
template <typename Pred>
bool wait_for(Pred pred) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, TopLevelChunkIndicesAndGrainAreFixed) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  std::mutex mu;
  std::vector<std::vector<u64>> seen(5);
  std::set<std::thread::id> threads;
  bool on_workers = true;
  pool.parallel_for(5, 23, 4, [&](u64 b, u64 e, u32 chunk) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(chunk, seen.size());
    seen[chunk] = {b, e};
    threads.insert(std::this_thread::get_id());
    on_workers = on_workers && ThreadPool::current() == &pool;
  });
  const std::vector<std::vector<u64>> want = {
      {5, 9}, {9, 13}, {13, 17}, {17, 21}, {21, 23}};
  EXPECT_EQ(seen, want);
  EXPECT_TRUE(on_workers);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, IdleWorkersJoinANestedJob) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> nested_threads;
  std::atomic<u32> started{0};
  bool all_started = true;
  std::thread::id caller;
  pool.parallel_for(0, 1, 1, [&](u64, u64, u32) {
    caller = std::this_thread::get_id();
    // Each nested chunk waits for its sibling: with the caller alone the
    // first chunk would time out, so finishing proves a helper ran one.
    pool.parallel_for(0, 2, 1, [&](u64, u64, u32) {
      ++started;
      const bool ok = wait_for([&] { return started.load() == 2; });
      std::lock_guard<std::mutex> lock(mu);
      all_started = all_started && ok;
      nested_threads.insert(std::this_thread::get_id());
      EXPECT_EQ(ThreadPool::current(), &pool);
    });
  });
  EXPECT_TRUE(all_started);
  EXPECT_EQ(nested_threads.size(), 2u);
}

TEST(ThreadPool, CallerDrainsNestedJobAloneWhenEveryWorkerIsBusy) {
  for (const u32 workers : {1u, 2u}) {
    ThreadPool pool(workers);
    std::atomic<bool> nested_done{false};
    std::atomic<u32> outer_started{0};
    std::thread::id caller;
    std::vector<std::thread::id> ran_on;
    std::mutex mu;
    pool.parallel_for(0, workers, 1, [&](u64, u64, u32 chunk) {
      ++outer_started;
      if (chunk != 0) {
        // Holds the other worker until the nested job is over.
        EXPECT_TRUE(wait_for([&] { return nested_done.load(); }));
        return;
      }
      EXPECT_TRUE(wait_for([&] { return outer_started.load() == workers; }));
      caller = std::this_thread::get_id();
      pool.parallel_for(0, 8, 1, [&](u64, u64, u32) {
        std::lock_guard<std::mutex> lock(mu);
        ran_on.push_back(std::this_thread::get_id());
      });
      nested_done = true;
    });
    ASSERT_EQ(ran_on.size(), 8u) << workers << " workers";
    for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPool, TwoWorkersRunNestedJobsAtTheSameTime) {
  ThreadPool pool(4);
  std::atomic<u32> outer_started{0};
  std::vector<u64> sums(2, 0);
  pool.parallel_for(0, 2, 1, [&](u64, u64, u32 chunk) {
    ++outer_started;
    EXPECT_TRUE(wait_for([&] { return outer_started.load() == 2; }));
    std::vector<u64> hits(100, 0);
    pool.parallel_for(0, 100, 7, [&](u64 b, u64 e, u32) {
      for (u64 i = b; i < e; ++i) hits[i] += i + 1;
    });
    u64 s = 0;
    for (const u64 h : hits) s += h;
    sums[chunk] = s;
  });
  EXPECT_EQ(sums[0], 5050u);
  EXPECT_EQ(sums[1], 5050u);
}

TEST(ThreadPool, NestedExceptionReachesOnlyItsOwnCaller) {
  ThreadPool pool(4);
  std::atomic<u32> outer_started{0};
  std::vector<int> outcome(2, -1);  // 1 = threw, 0 = completed
  std::atomic<u32> ran_after_throw{0};
  pool.parallel_for(0, 2, 1, [&](u64, u64, u32 chunk) {
    ++outer_started;
    EXPECT_TRUE(wait_for([&] { return outer_started.load() == 2; }));
    try {
      pool.parallel_for(0, 16, 1, [&](u64 b, u64, u32) {
        if (chunk == 0 && b == 3) throw std::runtime_error("nested");
        if (chunk == 0) ++ran_after_throw;
      });
      outcome[chunk] = 0;
    } catch (const std::runtime_error&) {
      outcome[chunk] = 1;
    }
  });
  EXPECT_EQ(outcome[0], 1);
  EXPECT_EQ(outcome[1], 0);
  // The failing job still ran its other chunks to completion.
  EXPECT_EQ(ran_after_throw.load(), 15u);

  // An uncaught nested error unwinds to the top-level caller...
  EXPECT_THROW(pool.parallel_for(0, 1, 1,
                                 [&](u64, u64, u32) {
                                   pool.parallel_for(
                                       0, 4, 1, [](u64 b, u64, u32) {
                                         if (b == 2) {
                                           throw std::runtime_error("deep");
                                         }
                                       });
                                 }),
               std::runtime_error);
  // ...and the pool keeps working.
  std::atomic<u64> total{0};
  pool.parallel_for(0, 64, 5, [&](u64 b, u64 e, u32) { total += e - b; });
  EXPECT_EQ(total.load(), 64u);
}

}  // namespace
}  // namespace kconv
