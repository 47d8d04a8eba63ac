#include "asup/util/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <vector>

#include <gtest/gtest.h>

#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"

namespace asup {
namespace {

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ThreadPool defaulted(0);
  EXPECT_EQ(defaulted.num_threads(), ThreadPool::DefaultThreadCount());
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  Mutex mutex;
  std::condition_variable all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        MutexLock lock(mutex);
        all_done.notify_all();
      }
    });
  }
  MutexLock lock(mutex);
  while (done.load() != kTasks) lock.Wait(all_done);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  std::atomic<int> hits{0};
  pool.ParallelFor(1, [&](size_t begin, size_t end) {
    hits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  // The caller participates in its own loop, so inner loops issued from
  // worker threads cannot deadlock even when every worker is occupied.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(16, [&](size_t inner_begin, size_t inner_end) {
        total.fetch_add(static_cast<int>(inner_end - inner_begin));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(AtomicBitmapTest, TestAndSetReportsPriorValue) {
  AtomicBitmap bitmap(130);
  EXPECT_EQ(bitmap.size(), 130u);
  EXPECT_FALSE(bitmap.Test(0));
  EXPECT_FALSE(bitmap.TestAndSet(0));
  EXPECT_TRUE(bitmap.TestAndSet(0));
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_FALSE(bitmap.TestAndSet(129));
  EXPECT_EQ(bitmap.Count(), 2u);
  EXPECT_EQ(bitmap.SetBits(), (std::vector<size_t>{0, 129}));
  bitmap.ClearAll();
  EXPECT_EQ(bitmap.Count(), 0u);
}

TEST(AtomicBitmapTest, ConcurrentTestAndSetElectsOneWinnerPerBit) {
  constexpr size_t kBits = 4096;
  AtomicBitmap bitmap(kBits);
  ThreadPool pool(4);
  std::atomic<size_t> wins{0};
  // Every index is claimed by several chunks' worth of contenders; exactly
  // one TestAndSet per bit may observe "previously unset".
  pool.ParallelFor(kBits * 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (!bitmap.TestAndSet(i % kBits)) wins.fetch_add(1);
    }
  });
  EXPECT_EQ(wins.load(), kBits);
  EXPECT_EQ(bitmap.Count(), kBits);
}

}  // namespace
}  // namespace asup
