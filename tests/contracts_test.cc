// Smoke test for the paper-invariant contract layer (util/check.h): builds
// with contracts enabled must abort — loudly, with the failed expression —
// when an invariant is deliberately violated, and must run the legitimate
// paths without tripping any check. In builds without contracts the
// violations below are unreachable by construction elsewhere, so the death
// tests skip.

#include "asup/util/check.h"

#include <sstream>

#include <gtest/gtest.h>

#include "asup/engine/answer_cache.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/suppress/segment.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::Rig;

#if ASUP_CONTRACTS_ENABLED

TEST(ContractsDeathTest, SegmentRejectsDegenerateGamma) {
  // γ ≤ 1 breaks μ ∈ (1, γ] and the hide probability 1 − μ/γ ∈ [0, 1).
  EXPECT_DEATH(IndistinguishableSegment(100, 1.0), "ASUP_CHECK failed");
  EXPECT_DEATH(IndistinguishableSegment(100, 0.5), "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, SegmentRejectsEmptyCorpus) {
  EXPECT_DEATH(IndistinguishableSegment(0, 2.0), "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, AnswerCacheRejectsUnclaimedPublish) {
  // Publishing without LookupOrClaim violates the claim protocol that makes
  // "same query ⇒ same answer" hold under concurrency.
  EXPECT_DEATH(
      {
        AnswerCache cache;
        cache.Publish("rogue query", 0, SearchResult{});
      },
      "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, AnswerCacheRejectsDoublePublish) {
  EXPECT_DEATH(
      {
        AnswerCache cache;
        SearchResult scratch;
        (void)cache.LookupOrClaim("q", &scratch);
        cache.Publish("q", 0, SearchResult{});
        cache.Publish("q", 0, SearchResult{});
      },
      "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, AnswerCacheRejectsAbandonOfPublishedAnswer) {
  EXPECT_DEATH(
      {
        AnswerCache cache;
        SearchResult scratch;
        (void)cache.LookupOrClaim("q", &scratch);
        cache.Publish("q", 0, SearchResult{});
        cache.Abandon("q");
      },
      "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, CoverFinderRejectsZeroCoverRatio) {
  EXPECT_DEATH(
      {
        HistoryStore history;
        CoverFinder finder(history, 5, 0.0);
      },
      "ASUP_CHECK failed");
}

TEST(ContractsDeathTest, CheckEqReportsBothValues) {
  EXPECT_DEATH(ASUP_CHECK_EQ(2 + 2, 5), "\\(4 vs. 5\\)");
}

#else  // !ASUP_CONTRACTS_ENABLED

TEST(ContractsDeathTest, SkippedWithoutContracts) {
  GTEST_SKIP() << "contracts compiled out (NDEBUG build without "
                  "-DASUP_ENABLE_CONTRACTS=ON)";
}

#endif  // ASUP_CONTRACTS_ENABLED

// The legitimate paths must run clean with every contract armed: this is
// the "paper invariants asserted at least once" half of the smoke test.
// (The full ctest suite under the contracts build covers far more; this
// test keeps a minimal end-to-end pass next to the death tests.)
TEST(ContractsTest, DefendedEnginesRunCleanUnderContracts) {
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine simple(*rig.engine, AsSimpleConfig{});
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  for (const char* w :
       {"sports", "game", "sports game", "team", "sports team", "score"}) {
    const SearchResult s = simple.Search(rig.Q(w));
    const SearchResult a = arbi.Search(rig.Q(w));
    EXPECT_LE(s.docs.size(), simple.k());
    EXPECT_LE(a.docs.size(), arbi.k());
  }
  // Re-issue: cache path, still contract-clean and deterministic.
  const SearchResult again = simple.Search(rig.Q("sports"));
  EXPECT_LE(again.docs.size(), simple.k());
}

TEST(ContractsTest, DisabledChecksDoNotEvaluateOperands) {
#if ASUP_CONTRACTS_ENABLED
  GTEST_SKIP() << "contracts enabled in this build";
#else
  int evaluations = 0;
  auto count = [&evaluations] { return ++evaluations > 0; };
  ASUP_CHECK(count());
  ASUP_CHECK_EQ(count(), true);
  ASUP_DCHECK(count());
  EXPECT_EQ(evaluations, 0);
#endif
}

}  // namespace
}  // namespace asup
