#include "asup/suppress/state_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "asup/suppress/as_decline.h"
#include "asup/util/hash.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> WarmupQueries(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* w : {"sports", "game", "sports game", "team",
                        "sports team", "score", "league", "game team"}) {
    queries.push_back(rig.Q(w));
  }
  return queries;
}

std::vector<KeywordQuery> CorrelatedQueries(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* w : {"sports game", "sports team", "sports score",
                        "sports league", "sports coach", "sports player",
                        "sports match", "sports", "game"}) {
    queries.push_back(rig.Q(w));
  }
  return queries;
}

bool SameAnswers(const SearchResult& a, const SearchResult& b) {
  if (a.status != b.status || a.docs.size() != b.docs.size()) return false;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].doc != b.docs[i].doc) return false;
  }
  return true;
}

TEST(StateIoTest, SimpleRoundTripRestoresAnswers) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) {
    answers.push_back(original.Search(q));
  }

  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  // A freshly restarted engine would answer differently...
  AsSimpleEngine restarted(*rig.engine, config);
  // ...until the state is restored.
  ASSERT_TRUE(LoadDefenseState(restarted, snapshot));
  EXPECT_EQ(restarted.NumActivatedDocs(), original.NumActivatedDocs());
  const auto queries = WarmupQueries(rig);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
}

TEST(StateIoTest, SimpleRejectsLegacyV1Snapshot) {
  // A v1 snapshot is a v2 snapshot minus the 8-byte corpus content
  // fingerprint, under the 'ASS1' magic. v1 was checked only for corpus
  // size, γ and key, so state saved against a different corpus of the
  // same size restored silently; Load now refuses the format outright.
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine original(*rig.engine, AsSimpleConfig{});
  for (const auto& q : WarmupQueries(rig)) original.Search(q);
  ASSERT_GT(original.NumActivatedDocs(), 0u);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  std::string bytes = snapshot.str();
  ASSERT_EQ(bytes.substr(0, 4), "ASS2");
  bytes[3] = '1';
  // Drop the content fingerprint: bytes [28, 36) after magic(4) +
  // corpus_size(8) + gamma(8) + key(8).
  bytes.erase(4 + 8 + 8 + 8, 8);

  std::stringstream v1(bytes);
  AsSimpleEngine restarted(*rig.engine, AsSimpleConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, v1));
  // A refused load leaves the engine untouched.
  EXPECT_EQ(restarted.NumActivatedDocs(), 0u);
}

TEST(StateIoTest, RestartWithoutStateChangesAnswers) {
  // The scenario persistence exists to prevent: losing Θ_R makes a
  // restarted engine answer at least one warmed query differently.
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) {
    answers.push_back(original.Search(q));
  }
  // Replaying the *same* order from scratch would reproduce everything
  // (that is what determinism means); the hazard is a client re-issuing a
  // later query first, which the restarted engine now processes with an
  // empty Θ_R. Replay in reverse order.
  AsSimpleEngine amnesiac(*rig.engine, config);
  const auto queries = WarmupQueries(rig);
  bool any_difference = false;
  for (size_t i = queries.size(); i-- > 0;) {
    if (!SameAnswers(amnesiac.Search(queries[i]), answers[i])) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(StateIoTest, SimpleRejectsConfigMismatch) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  original.Search(rig.Q("sports"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  AsSimpleConfig other;
  other.gamma = 3.0;
  AsSimpleEngine incompatible(*rig.engine, other);
  EXPECT_FALSE(LoadDefenseState(incompatible, snapshot));
  EXPECT_EQ(incompatible.NumActivatedDocs(), 0u);  // unchanged on failure
}

TEST(StateIoTest, SimpleRejectsDifferentKey) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  AsSimpleConfig rekeyed;
  rekeyed.secret_key = 0x1234;
  AsSimpleEngine incompatible(*rig.engine, rekeyed);
  EXPECT_FALSE(LoadDefenseState(incompatible, snapshot));
}

TEST(StateIoTest, SimpleRejectsGarbage) {
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  std::stringstream garbage("this is not a snapshot at all");
  EXPECT_FALSE(LoadDefenseState(engine, garbage));
}

TEST(StateIoTest, ArbiRoundTripRestoresAnswersAndHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiConfig config;
  AsArbiEngine original(*rig.engine, config);
  std::vector<KeywordQuery> queries;
  for (const char* w : {"sports game", "sports team", "sports score",
                        "sports league", "sports coach"}) {
    queries.push_back(rig.Q(w));
  }
  std::vector<SearchResult> answers;
  for (const auto& q : queries) answers.push_back(original.Search(q));
  ASSERT_GT(original.history().NumQueries(), 0u);

  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  AsArbiEngine restarted(*rig.engine, config);
  ASSERT_TRUE(LoadDefenseState(restarted, snapshot));
  EXPECT_EQ(restarted.history().NumQueries(),
            original.history().NumQueries());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
  // The restored history keeps powering virtual query processing for new
  // covered queries.
  const uint64_t virtuals_before = restarted.stats().virtual_answers;
  restarted.Search(rig.Q("sports player"));
  restarted.Search(rig.Q("sports match"));
  EXPECT_GE(restarted.stats().virtual_answers, virtuals_before);
}

TEST(StateIoTest, ArbiRejectsSimpleSnapshot) {
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine simple(*rig.engine, AsSimpleConfig{});
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(simple, snapshot));
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(arbi, snapshot));
}

TEST(StateIoTest, ArbiRejectsTruncatedSnapshot) {
  Rig rig = MakeTopicalRig(520, 50);
  AsArbiEngine original(*rig.engine, AsArbiConfig{});
  original.Search(rig.Q("sports game"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  AsArbiEngine restarted(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, truncated));
}

TEST(StateIoTest, SimpleFailedLoadLeavesWarmEngineUnchanged) {
  // "Unchanged on failure" must hold for an engine that already has state,
  // not just a fresh one: a deployment retries a corrupt snapshot without
  // losing the state it is running on.
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) answers.push_back(engine.Search(q));
  const size_t activated = engine.NumActivatedDocs();

  std::stringstream garbage("ASS1 but then nothing sensible follows here");
  EXPECT_FALSE(LoadDefenseState(engine, garbage));
  EXPECT_EQ(engine.NumActivatedDocs(), activated);
  const auto queries = WarmupQueries(rig);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(engine.Search(queries[i]), answers[i])) << i;
  }
}

TEST(StateIoTest, ArbiTailCorruptionLeavesEngineFullyUnchanged) {
  // The AS-ARBI snapshot nests the AS-SIMPLE section first; a snapshot
  // whose *history/cache tail* is corrupt must not half-commit the inner
  // AS-SIMPLE state (the loader stages it before committing anything).
  Rig rig = MakeTopicalRig(520, 50);
  AsArbiEngine original(*rig.engine, AsArbiConfig{});
  original.Search(rig.Q("sports game"));
  original.Search(rig.Q("sports team"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  ASSERT_GT(original.simple_engine().NumActivatedDocs(), 0u);

  // Dropping the final byte corrupts the trailing cache section only; the
  // nested AS-SIMPLE section still parses cleanly.
  std::stringstream tail_corrupt(bytes.substr(0, bytes.size() - 1));
  AsArbiEngine restarted(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, tail_corrupt));
  EXPECT_EQ(restarted.history().NumQueries(), 0u);
  EXPECT_EQ(restarted.simple_engine().NumActivatedDocs(), 0u);
}

TEST(StateIoTest, SimpleRejectsUnknownDocumentId) {
  // Θ_R entries are universe document ids; an id outside the corpus cannot
  // be mapped to a local bitmap slot and must be rejected, not aborted on.
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine original(*rig.engine, AsSimpleConfig{});
  original.Search(rig.Q("sports"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  std::string bytes = snapshot.str();

  // v2 layout: magic(4) + corpus_size(8) + gamma(8) + key(8) +
  // content_fingerprint(8) + count(8) + first universe doc id (8 bytes,
  // little-endian). Overwrite that id with one no universe document uses.
  ASSERT_GT(original.NumActivatedDocs(), 0u);
  const size_t id_offset = 4 + 8 + 8 + 8 + 8 + 8;
  ASSERT_GE(bytes.size(), id_offset + 8);
  for (size_t i = 0; i < 8; ++i) {
    bytes[id_offset + i] = static_cast<char>(0xff);
  }
  std::stringstream corrupt(bytes);
  AsSimpleEngine restarted(*rig.engine, AsSimpleConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, corrupt));
  EXPECT_EQ(restarted.NumActivatedDocs(), 0u);
}

TEST(StateIoTest, DeclineRoundTripRestoresAnswersAndHistory) {
  // AS-DECLINE persists through the same path as AS-ARBI, under its own
  // magic: refusals replay as refusals, answers as answers.
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine original(*rig.engine, AsDeclineConfig{});
  const auto queries = CorrelatedQueries(rig);
  std::vector<SearchResult> answers;
  for (const auto& q : queries) answers.push_back(original.Search(q));
  ASSERT_GT(original.stats().declined, 0u);
  ASSERT_GT(original.history().NumQueries(), 0u);

  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  EXPECT_EQ(bytes.substr(0, 8), "ASD2ASS2");

  AsDeclineEngine restarted(*rig.engine, AsDeclineConfig{});
  std::stringstream in(bytes);
  ASSERT_TRUE(LoadDefenseState(restarted, in));
  EXPECT_EQ(restarted.history().NumQueries(),
            original.history().NumQueries());
  EXPECT_EQ(restarted.NumActivatedDocs(), original.NumActivatedDocs());
  std::stringstream again;
  ASSERT_TRUE(SaveDefenseState(restarted, again));
  EXPECT_EQ(again.str(), bytes);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
  EXPECT_EQ(restarted.stats().cache_hits, queries.size());
}

TEST(StateIoTest, CoverDefensesRejectEachOthersSnapshots) {
  // Same layout, different history semantics (AS-DECLINE's history never
  // holds a virtual answer's cover): the magic keeps them apart.
  Rig rig = MakeTopicalRig(520, 50);
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  AsDeclineEngine decline(*rig.engine, AsDeclineConfig{});
  arbi.Search(rig.Q("sports game"));
  decline.Search(rig.Q("sports game"));
  std::stringstream arbi_bytes, decline_bytes;
  ASSERT_TRUE(SaveDefenseState(arbi, arbi_bytes));
  ASSERT_TRUE(SaveDefenseState(decline, decline_bytes));

  AsArbiEngine fresh_arbi(*rig.engine, AsArbiConfig{});
  AsDeclineEngine fresh_decline(*rig.engine, AsDeclineConfig{});
  AsSimpleEngine fresh_simple(*rig.engine, AsSimpleConfig{});
  EXPECT_FALSE(LoadDefenseState(fresh_arbi, decline_bytes));
  EXPECT_FALSE(LoadDefenseState(fresh_decline, arbi_bytes));
  std::stringstream decline_again(decline_bytes.str());
  EXPECT_FALSE(LoadDefenseState(fresh_simple, decline_again));
  EXPECT_EQ(fresh_arbi.NumActivatedDocs(), 0u);
  EXPECT_EQ(fresh_decline.NumActivatedDocs(), 0u);
}

TEST(StateIoTest, DeclineCorruptionLeavesEngineFullyUnchanged) {
  Rig rig = MakeTopicalRig(520, 50);
  AsDeclineEngine original(*rig.engine, AsDeclineConfig{});
  original.Search(rig.Q("sports game"));
  original.Search(rig.Q("sports team"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  ASSERT_GT(original.NumActivatedDocs(), 0u);

  // A truncated tail (cache section) and a truncated middle (history
  // section) both fail before anything is committed.
  for (const size_t keep : {bytes.size() - 1, bytes.size() / 2}) {
    std::stringstream corrupt(bytes.substr(0, keep));
    AsDeclineEngine restarted(*rig.engine, AsDeclineConfig{});
    EXPECT_FALSE(LoadDefenseState(restarted, corrupt)) << keep;
    EXPECT_EQ(restarted.history().NumQueries(), 0u) << keep;
    EXPECT_EQ(restarted.NumActivatedDocs(), 0u) << keep;
  }
}

// Golden bytes: the serialized state after a fixed workload, pinned by
// length and content digest. Any change to the layout, to the order entries
// are written in, or to the answers and Θ_R the engine computes shows up
// here.
TEST(StateIoTest, SimpleStateBytesArePinned) {
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  for (const auto& q : WarmupQueries(rig)) engine.Search(q);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(engine, snapshot));
  const std::string bytes = snapshot.str();
  EXPECT_EQ(bytes.substr(0, 4), "ASS2");
  EXPECT_EQ(bytes.size(), 1212u);
  EXPECT_EQ(HashString(bytes), 0xfa9fbf14df7589b5ULL);
}

TEST(StateIoTest, ArbiStateBytesArePinned) {
  // The AS-ARBI layout nests a complete AS-SIMPLE section, whose answer
  // cache is always empty: AS-ARBI caches final answers itself.
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine engine(*rig.engine, AsArbiConfig{});
  for (const auto& q : CorrelatedQueries(rig)) engine.Search(q);
  ASSERT_GT(engine.stats().virtual_answers, 0u);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(engine, snapshot));
  const std::string bytes = snapshot.str();
  EXPECT_EQ(bytes.substr(0, 8), "ASA2ASS2");
  EXPECT_EQ(bytes.size(), 7224u);
  EXPECT_EQ(HashString(bytes), 0x74198a1b534199d2ULL);
}

}  // namespace
}  // namespace asup
