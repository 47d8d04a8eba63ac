// Incremental-vs-rebuild equivalence at the full-engine level: a defended
// engine whose corpus is maintained through CorpusManager deltas must be
// indistinguishable — answers, suppression decisions, and state_io bytes —
// from the same engine over a freshly built index, and from itself across
// every execution configuration (serial / sharded 1,2,4 / deterministic
// parallel batches).

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/thread_pool.h"

namespace asup {
namespace {

constexpr size_t kK = 5;
constexpr size_t kInitialDocs = 360;

SyntheticCorpusConfig GenConfig() {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = 29;
  return config;
}

const std::vector<std::string>& QueryTexts() {
  static const std::vector<std::string> texts = {
      "sports",      "game",        "sports game", "team",
      "sports team", "score",       "league",      "game team",
      "coach",       "game score",  "season",      "team league",
  };
  return texts;
}

/// The epoch schedule every configuration replays: (add, remove) per delta,
/// with the full query list run before the first delta and after each one.
struct DeltaShape {
  size_t add;
  size_t remove;
};
const std::vector<DeltaShape>& Schedule() {
  static const std::vector<DeltaShape> shapes = {
      {70, 0}, {0, 45}, {60, 30}, {25, 25}};
  return shapes;
}

CorpusDelta MakeDelta(SyntheticCorpusGenerator& generator,
                      const Corpus& current, const DeltaShape& shape) {
  CorpusDelta delta;
  if (shape.add > 0) {
    const Corpus fresh = generator.Generate(shape.add);
    delta.add.assign(fresh.documents().begin(), fresh.documents().end());
  }
  if (shape.remove > 0) {
    const size_t stride = std::max<size_t>(1, current.size() / shape.remove);
    for (size_t pos = 0;
         pos < current.size() && delta.remove.size() < shape.remove;
         pos += stride) {
      delta.remove.push_back(current.documents()[pos].id());
    }
  }
  return delta;
}

enum class Exec {
  kSerialPlain,
  kSharded1,
  kSharded2,
  kSharded4,
  kParallelDeterministic,
};

struct RunOutcome {
  std::vector<SearchResult> answers;
  std::string state_bytes;
  uint64_t docs_hidden = 0;
  uint64_t docs_trimmed = 0;
  uint64_t epoch_migrations = 0;
};

size_t ShardsOf(Exec exec) {
  switch (exec) {
    case Exec::kSharded1: return 1;
    case Exec::kSharded2: return 2;
    case Exec::kSharded4: return 4;
    default: return 0;
  }
}

/// Replays the full schedule under one execution configuration and returns
/// everything the equivalence claims cover.
RunOutcome RunAsSimple(Exec exec) {
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager::Options options;
  options.num_shards = ShardsOf(exec);
  CorpusManager manager(generator.Generate(kInitialDocs), options);

  // One engine either way: it scatters when the manager keeps shards.
  MatchingEngine base(manager, kK);
  AsSimpleEngine defended(base, AsSimpleConfig{});
  ThreadPool pool(4);
  BatchExecutor executor(pool);

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  std::vector<KeywordQuery> queries;
  for (const std::string& text : QueryTexts()) {
    queries.push_back(KeywordQuery::Parse(vocabulary, text));
  }

  RunOutcome outcome;
  const auto run_batch = [&] {
    if (exec == Exec::kParallelDeterministic) {
      auto results = executor.ExecuteDeterministic(defended, queries);
      outcome.answers.insert(outcome.answers.end(), results.begin(),
                             results.end());
    } else {
      for (const KeywordQuery& query : queries) {
        outcome.answers.push_back(defended.Search(query));
      }
    }
  };

  run_batch();
  for (const DeltaShape& shape : Schedule()) {
    manager.Apply(MakeDelta(generator, manager.Current()->corpus(), shape));
    run_batch();
  }

  std::stringstream state;
  EXPECT_TRUE(SaveDefenseState(defended, state));
  outcome.state_bytes = state.str();
  const AsSimpleStats stats = defended.stats();
  outcome.docs_hidden = stats.docs_hidden;
  outcome.docs_trimmed = stats.docs_trimmed;
  outcome.epoch_migrations = stats.epoch_migrations;
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
  return outcome;
}

void ExpectSameAnswers(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].status, b[i].status) << "query " << i;
    ASSERT_EQ(a[i].docs.size(), b[i].docs.size()) << "query " << i;
    for (size_t d = 0; d < a[i].docs.size(); ++d) {
      ASSERT_EQ(a[i].docs[d].doc, b[i].docs[d].doc) << "query " << i;
      ASSERT_EQ(a[i].docs[d].score, b[i].docs[d].score) << "query " << i;
    }
  }
}

TEST(EpochEquivalenceTest, AsSimpleIdenticalAcrossExecutionConfigs) {
  const RunOutcome reference = RunAsSimple(Exec::kSerialPlain);
  EXPECT_EQ(reference.epoch_migrations, Schedule().size());
  for (Exec exec : {Exec::kSharded1, Exec::kSharded2, Exec::kSharded4,
                    Exec::kParallelDeterministic}) {
    SCOPED_TRACE(static_cast<int>(exec));
    const RunOutcome outcome = RunAsSimple(exec);
    ExpectSameAnswers(reference.answers, outcome.answers);
    EXPECT_EQ(reference.docs_hidden, outcome.docs_hidden);
    EXPECT_EQ(reference.docs_trimmed, outcome.docs_trimmed);
    EXPECT_EQ(reference.epoch_migrations, outcome.epoch_migrations);
    // The strongest form of the claim: the persisted suppression state is
    // bitwise identical, byte for byte.
    EXPECT_EQ(reference.state_bytes, outcome.state_bytes);
  }
}

TEST(EpochEquivalenceTest, MaintainedEngineEqualsFreshEngineOnFinalEpoch) {
  // Apply the whole schedule with no queries, then query: the maintained
  // engine (one lazy migration, merged indexes) must behave bitwise like
  // an engine built fresh over the final corpus — answers and state bytes.
  SyntheticCorpusGenerator managed_gen(GenConfig());
  CorpusManager manager(managed_gen.Generate(kInitialDocs));
  SyntheticCorpusGenerator fresh_gen(GenConfig());
  Corpus reference = fresh_gen.Generate(kInitialDocs);
  for (const DeltaShape& shape : Schedule()) {
    manager.Apply(MakeDelta(managed_gen, manager.Current()->corpus(), shape));
    reference = ApplyDelta(reference, MakeDelta(fresh_gen, reference, shape));
  }

  PlainSearchEngine maintained_base(manager, kK);
  AsSimpleEngine maintained(maintained_base, AsSimpleConfig{});
  const InvertedIndex fresh_index(reference);
  PlainSearchEngine fresh_base(fresh_index, kK);
  AsSimpleEngine fresh(fresh_base, AsSimpleConfig{});

  const Vocabulary& vocabulary = reference.vocabulary();
  for (const std::string& text : QueryTexts()) {
    const KeywordQuery query = KeywordQuery::Parse(vocabulary, text);
    const SearchResult a = maintained.Search(query);
    const SearchResult b = fresh.Search(query);
    ASSERT_EQ(a.status, b.status) << text;
    ASSERT_EQ(a.docs.size(), b.docs.size()) << text;
    for (size_t d = 0; d < a.docs.size(); ++d) {
      ASSERT_EQ(a.docs[d].doc, b.docs[d].doc) << text;
      ASSERT_EQ(a.docs[d].score, b.docs[d].score) << text;
    }
  }
  EXPECT_EQ(maintained.NumActivatedDocs(), fresh.NumActivatedDocs());

  std::stringstream maintained_state;
  std::stringstream fresh_state;
  ASSERT_TRUE(SaveDefenseState(maintained, maintained_state));
  ASSERT_TRUE(SaveDefenseState(fresh, fresh_state));
  EXPECT_EQ(maintained_state.str(), fresh_state.str());

  // And the bytes interoperate: the maintained engine's state restores
  // into the fresh engine (content fingerprints agree by construction).
  std::stringstream replay(maintained_state.str());
  AsSimpleEngine restored(fresh_base, AsSimpleConfig{});
  EXPECT_TRUE(LoadDefenseState(restored, replay));
  EXPECT_EQ(restored.NumActivatedDocs(), maintained.NumActivatedDocs());
}

struct CoverRun {
  std::vector<SearchResult> answers;
  std::string state_bytes;
  DefendedStats stats;
};

/// Replays the schedule through a cover defense (AS-ARBI or AS-DECLINE)
/// over a single index (shards = 0) or a sharded one, serially or in
/// deterministic parallel batches.
template <typename Config>
CoverRun RunCoverDefense(const Config& config, size_t shards,
                         bool deterministic) {
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager::Options options;
  options.num_shards = shards;
  CorpusManager manager(generator.Generate(kInitialDocs), options);
  MatchingEngine base(manager, kK);
  DefendedEngine defended(base, config);
  ThreadPool pool(4);
  BatchExecutor executor(pool);

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  std::vector<KeywordQuery> queries;
  for (const std::string& text : QueryTexts()) {
    queries.push_back(KeywordQuery::Parse(vocabulary, text));
  }
  CoverRun run;
  const auto run_batch = [&] {
    if (deterministic) {
      auto results = executor.ExecuteDeterministic(defended, queries);
      run.answers.insert(run.answers.end(), results.begin(), results.end());
    } else {
      for (const KeywordQuery& query : queries) {
        run.answers.push_back(defended.Search(query));
      }
    }
  };
  run_batch();
  for (const DeltaShape& shape : Schedule()) {
    manager.Apply(MakeDelta(generator, manager.Current()->corpus(), shape));
    run_batch();
  }
  std::stringstream state;
  EXPECT_TRUE(SaveDefenseState(defended, state));
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
  EXPECT_EQ(defended.stats().epoch_migrations, Schedule().size());
  run.state_bytes = state.str();
  run.stats = defended.stats();
  return run;
}

TEST(EpochEquivalenceTest, AsArbiIdenticalAcrossConfigsAndVsFresh) {
  // The AS-ARBI pipeline (history recording, cover evaluation, virtual
  // answers) layered over epoch maintenance: serial-plain vs sharded(2) vs
  // deterministic-parallel.
  const CoverRun reference = RunCoverDefense(AsArbiConfig{}, 0, false);
  for (const auto& [shards, deterministic] :
       {std::pair<size_t, bool>{2, false}, {0, true}}) {
    SCOPED_TRACE(shards);
    const CoverRun outcome = RunCoverDefense(AsArbiConfig{}, shards,
                                             deterministic);
    ExpectSameAnswers(reference.answers, outcome.answers);
    EXPECT_EQ(reference.state_bytes, outcome.state_bytes);
  }
}

TEST(EpochEquivalenceTest, AsDeclineIdenticalAcrossConfigs) {
  // AS-DECLINE on the same engine: epoch migration, history compaction and
  // deterministic-batch prefetch come with it. Serial vs sharded 1/2/4 vs
  // deterministic-parallel, answers and state bytes.
  AsDeclineConfig config;
  config.cover_size = 10;  // widen the trigger so refusals occur
  config.cover_ratio = 0.3;
  const CoverRun reference = RunCoverDefense(config, 0, false);
  EXPECT_GT(reference.stats.declined, 0u);
  EXPECT_GT(reference.stats.simple_answers, 0u);
  for (const auto& [shards, deterministic] :
       {std::pair<size_t, bool>{1, false},
        {2, false},
        {4, false},
        {0, true}}) {
    SCOPED_TRACE(shards);
    const CoverRun outcome = RunCoverDefense(config, shards, deterministic);
    ExpectSameAnswers(reference.answers, outcome.answers);
    EXPECT_EQ(reference.stats.declined, outcome.stats.declined);
    EXPECT_EQ(reference.stats.docs_hidden, outcome.stats.docs_hidden);
    EXPECT_EQ(reference.state_bytes, outcome.state_bytes);
  }
}

}  // namespace
}  // namespace asup
