// Tests for the SearchService decorators: QueryCountingService and
// TimingService — including concurrent callers, since the counting/timing
// decorators sit in front of thread-safe engines inside the parallel batch
// subsystem.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/search_service.h"
#include "asup/suppress/as_arbi.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::Rig;

TEST(QueryCountingServiceTest, CountsAndDelegates) {
  Rig rig = MakeRig(300, 5);
  QueryCountingService counting(*rig.engine);
  EXPECT_EQ(counting.k(), rig.engine->k());
  EXPECT_EQ(counting.queries_issued(), 0u);

  const auto query = rig.Q("sports game");
  const SearchResult direct = rig.engine->Search(query);
  const SearchResult counted = counting.Search(query);
  EXPECT_EQ(counted.status, direct.status);
  EXPECT_EQ(counted.DocIds(), direct.DocIds());
  EXPECT_EQ(counting.queries_issued(), 1u);

  counting.Search(rig.Q("team"));
  counting.Search(rig.Q("team"));
  EXPECT_EQ(counting.queries_issued(), 3u);

  counting.Reset();
  EXPECT_EQ(counting.queries_issued(), 0u);
}

TEST(QueryCountingServiceTest, ConcurrentCallersLoseNoIncrements) {
  Rig rig = MakeRig(200, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  QueryCountingService counting(defended);
  const auto query = rig.Q("sports");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counting.Search(query);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counting.queries_issued(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(defended.stats().queries_processed,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TimingServiceTest, AccumulatesTimeAndQueries) {
  Rig rig = MakeRig(300, 5);
  TimingService timing(*rig.engine);
  EXPECT_EQ(timing.k(), rig.engine->k());
  EXPECT_EQ(timing.queries(), 0u);
  EXPECT_EQ(timing.total_nanos(), 0);
  EXPECT_EQ(timing.MeanNanos(), 0.0);

  timing.Search(rig.Q("sports game"));
  timing.Search(rig.Q("team"));
  EXPECT_EQ(timing.queries(), 2u);
  EXPECT_GT(timing.total_nanos(), 0);
  EXPECT_NEAR(timing.MeanNanos(),
              static_cast<double>(timing.total_nanos()) / 2.0, 1e-9);

  timing.Reset();
  EXPECT_EQ(timing.queries(), 0u);
  EXPECT_EQ(timing.total_nanos(), 0);
}

TEST(TimingServiceTest, ConcurrentCallersAggregateWork) {
  Rig rig = MakeRig(300, 5);
  TimingService timing(*rig.engine);
  const auto query = rig.Q("sports");

  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads * kPerThread, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) timing.Search(query);
  });
  EXPECT_EQ(timing.queries(), static_cast<uint64_t>(kThreads) * kPerThread);
  // total_nanos sums per-call latencies across threads; every call took a
  // nonzero amount of time, so the sum is at least the call count.
  EXPECT_GE(timing.total_nanos(),
            static_cast<int64_t>(timing.queries()));
  EXPECT_GT(timing.MeanNanos(), 0.0);
}

TEST(DecoratorStackTest, CountingOverTimingOverDefended) {
  // The stack used by the overhead experiments, exercised end to end.
  Rig rig = MakeRig(300, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  TimingService timing(defended);
  QueryCountingService counting(timing);

  for (int i = 0; i < 10; ++i) counting.Search(rig.Q("sports game"));
  EXPECT_EQ(counting.queries_issued(), 10u);
  EXPECT_EQ(timing.queries(), 10u);
  EXPECT_GT(timing.total_nanos(), 0);
  EXPECT_EQ(counting.k(), rig.engine->k());
}

}  // namespace
}  // namespace asup
