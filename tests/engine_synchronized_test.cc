// Every defense is internally synchronized: concurrent callers drive the
// defended engine directly, with no serializing wrapper in front of it.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::Rig;

TEST(DefendedEngineThreadSafetyTest, ConcurrentQueriesOnStatefulDefense) {
  // Hammer a (stateful) AS-ARBI engine from several threads; afterwards
  // the engine must still be consistent and deterministic for re-issued
  // queries.
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});

  const char* words[] = {"sports", "game", "team", "score", "league",
                         "coach", "season", "player"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const auto q = rig.Q(words[(t + round) % 8]);
        const SearchResult result = defended.Search(q);
        if (result.docs.size() > 5) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(defended.stats().queries_processed, 200u);

  // Deterministic replay after the concurrent phase.
  for (const char* w : words) {
    const auto q = rig.Q(w);
    const auto a = defended.Search(q);
    const auto b = defended.Search(q);
    EXPECT_EQ(a.DocIds(), b.DocIds());
  }
}

TEST(DefendedEngineThreadSafetyTest, ConcurrentRepeatsSeeOneAnswer) {
  // Every thread issues the same query; the answer cache makes all of
  // them observe the answer the first caller computed, under AS-ARBI and
  // AS-DECLINE alike.
  Rig rig = MakeRig(500, 5);
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  AsDeclineEngine decline(*rig.engine, AsDeclineConfig{});
  for (DefendedEngine* defended : {&arbi, &decline}) {
    const auto q = rig.Q("sports game");
    const auto reference = defended->Search(q).DocIds();

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int round = 0; round < 25; ++round) {
          if (defended->Search(q).DocIds() != reference) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(defended->stats().cache_hits, 200u);
  }
}

}  // namespace
}  // namespace asup
