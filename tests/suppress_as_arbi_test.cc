#include "asup/suppress/as_arbi.h"

#include <set>

#include <gtest/gtest.h>

#include "asup/engine/pipeline/result_processor.h"
#include "asup/suppress/processors.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

TEST(AsArbiTest, UnderflowPassesThrough) {
  Rig rig = MakeRig(400, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto result = defended.Search(rig.Q("notaword"));
  EXPECT_EQ(result.status, QueryStatus::kUnderflow);
  EXPECT_TRUE(result.docs.empty());
  EXPECT_EQ(defended.history().NumQueries(), 0u);
}

TEST(AsArbiTest, FirstQueryGoesThroughSimplePath) {
  Rig rig = MakeRig(400, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto result = defended.Search(rig.Q("sports"));
  EXPECT_FALSE(result.docs.empty());
  EXPECT_EQ(defended.stats().simple_answers, 1u);
  EXPECT_EQ(defended.stats().virtual_answers, 0u);
  EXPECT_EQ(defended.history().NumQueries(), 1u);
}

TEST(AsArbiTest, DeterministicRepeats) {
  Rig rig = MakeRig(500, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto first = defended.Search(rig.Q("sports game"));
  defended.Search(rig.Q("team"));
  defended.Search(rig.Q("score"));
  const auto again = defended.Search(rig.Q("sports game"));
  ASSERT_EQ(first.docs.size(), again.docs.size());
  for (size_t i = 0; i < first.docs.size(); ++i) {
    EXPECT_EQ(first.docs[i].doc, again.docs[i].doc);
  }
  EXPECT_GE(defended.stats().cache_hits, 1u);
}

// Correlated topical queries: "sports" plus each of its strongest topic
// companions. In the topical rig the sports population is ~k documents, so
// these queries heavily overlap — the regime where virtual query
// processing engages.
std::vector<KeywordQuery> CorrelatedFamily(const Rig& rig, size_t count) {
  std::vector<KeywordQuery> queries;
  const char* words[] = {"game", "team",   "score", "league", "coach",
                         "season", "player", "match", "win"};
  for (const char* w : words) {
    if (queries.size() >= count) break;
    queries.push_back(rig.Q(std::string("sports ") + w));
  }
  return queries;
}

TEST(AsArbiTest, VirtualAnswerForCoveredQuery) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  uint64_t virtuals_before = defended.stats().virtual_answers;
  for (const auto& q : CorrelatedFamily(rig, 9)) defended.Search(q);
  // With heavy overlap among these queries, later ones are answered
  // virtually once history accumulates.
  EXPECT_GT(defended.stats().virtual_answers, virtuals_before);
}

TEST(AsArbiTest, VirtualAnswersComeFromHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  bool any_virtual = false;
  for (const auto& q : CorrelatedFamily(rig, 9)) {
    const uint64_t virtuals = defended.stats().virtual_answers;
    const auto result = defended.Search(q);
    if (defended.stats().virtual_answers == virtuals) continue;
    any_virtual = true;
    // Every returned doc must have been disclosed by an earlier answer...
    for (const auto& scored : result.docs) {
      EXPECT_NE(defended.history().QueriesReturning(scored.doc), nullptr);
    }
    // ...and must match the query.
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    for (const auto& scored : result.docs) {
      EXPECT_TRUE(matches.count(scored.doc));
    }
  }
  EXPECT_TRUE(any_virtual);
}

TEST(AsArbiTest, VirtualAnswersNotRecordedInHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto family = CorrelatedFamily(rig, 9);
  for (const auto& q : family) defended.Search(q);
  // History grew only by the non-virtual answers.
  EXPECT_EQ(defended.history().NumQueries() +
                defended.stats().virtual_answers,
            family.size());
  EXPECT_GT(defended.stats().virtual_answers, 0u);
}

TEST(AsArbiTest, HistoryRecordGatesOnCoverOutcomeNotOnMatches) {
  // The cover stage computes M(q) for every query whose trigger it
  // evaluates, so a covered query reaches the record stage with M(q) in
  // hand. Only the cover outcome tells it apart from an answer of the
  // hiding stages; a gate on M(q) would record virtual answers and
  // refusals into the history.
  Rig rig = MakeRig(400, 5);
  DefenseHistory history(/*cover_size=*/5, /*cover_ratio=*/1.0);
  const HistoryRecordProcessor record(history);
  const KeywordQuery query = rig.Q("sports");
  const auto fill_with_matches = [&](QueryContext& context, bool covered) {
    context.query = &query;
    context.base = rig.engine.get();
    context.k = 5;
    context.owned_ranked = rig.engine->TopMatches(query, 10);
    context.ranked = &context.owned_ranked;
    context.match_count = context.owned_ranked.total_matches;
    context.have_match_count = true;
    context.outcome.cover_answers_used = covered ? 1 : 0;
    context.result.docs = context.owned_ranked.docs;
    context.result.docs.resize(3);
    context.finished = true;
  };

  QueryContext covered;
  fill_with_matches(covered, /*covered=*/true);
  record.Process(covered);
  EXPECT_EQ(history.UnlockedStore().NumQueries(), 0u);
  EXPECT_EQ(covered.outcome.answered_by, AnsweredBy::kNone);

  QueryContext answered;
  fill_with_matches(answered, /*covered=*/false);
  record.Process(answered);
  EXPECT_EQ(history.UnlockedStore().NumQueries(), 1u);
  EXPECT_EQ(answered.outcome.answered_by, AnsweredBy::kSimple);

  // An underflow is no answer of the hiding stages either.
  QueryContext underflow;
  underflow.query = &query;
  underflow.have_match_count = true;
  underflow.finished = true;
  record.Process(underflow);
  EXPECT_EQ(history.UnlockedStore().NumQueries(), 1u);
  EXPECT_EQ(underflow.outcome.answered_by, AnsweredBy::kNone);
}

TEST(AsArbiTest, BroadQueriesSkipTriggerEvaluation) {
  Rig rig = MakeRig(800, 5);
  AsArbiConfig config;
  config.cover_size = 2;  // trigger only possible for |q| <= 10
  AsArbiEngine defended(*rig.engine, config);
  defended.Search(rig.Q("sports"));  // df >> 10 in an 800-doc corpus
  EXPECT_EQ(defended.stats().trigger_evaluations, 0u);
}

TEST(AsArbiTest, NeverReturnsMoreThanK) {
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  for (const char* w : {"sports", "game", "sports game", "team", "score"}) {
    EXPECT_LE(defended.Search(rig.Q(w)).docs.size(), 5u);
  }
}

TEST(AsArbiTest, AnswersAreSubsetsOfMatches) {
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  for (const char* w : {"sports", "game", "sports game", "sports team"}) {
    const auto q = rig.Q(w);
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    for (const auto& scored : defended.Search(q).docs) {
      EXPECT_TRUE(matches.count(scored.doc)) << w;
    }
  }
}

class AsArbiCoverSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AsArbiCoverSizeSweep, WorksAcrossCoverSizes) {
  // The paper reports little sensitivity to m in 1..10; at minimum the
  // engine must stay correct (subset-of-matches, size <= k).
  Rig rig = MakeRig(500, 10, /*seed=*/31);
  AsArbiConfig config;
  config.cover_size = GetParam();
  AsArbiEngine defended(*rig.engine, config);
  for (const char* w :
       {"sports", "sports game", "sports team", "game team", "sports score"}) {
    const auto q = rig.Q(w);
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    const auto result = defended.Search(q);
    EXPECT_LE(result.docs.size(), 10u);
    for (const auto& scored : result.docs) {
      EXPECT_TRUE(matches.count(scored.doc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoverSizes, AsArbiCoverSizeSweep,
                         ::testing::Values(1, 2, 5, 10));

}  // namespace
}  // namespace asup
