// Suppression-state migration across corpus epochs: the segment arithmetic
// (μ = n/γ^⌊log n/log γ⌋) must be recomputed for the new corpus size, the
// returned-before set Θ_R must be remapped through universe document ids,
// and AS-ARBI's history must be compacted to surviving documents — all
// exactly as if the defense had been configured on the new corpus fresh.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/search_engine.h"
#include "asup/index/corpus_manager.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/segment.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"

namespace asup {
namespace {

SyntheticCorpusConfig GenConfig(uint64_t seed = 13) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = seed;
  return config;
}

CorpusDelta AddDocs(SyntheticCorpusGenerator& generator, size_t count) {
  CorpusDelta delta;
  const Corpus fresh = generator.Generate(count);
  delta.add.assign(fresh.documents().begin(), fresh.documents().end());
  return delta;
}

CorpusDelta RemoveEveryNth(const Corpus& corpus, size_t stride) {
  CorpusDelta delta;
  for (size_t pos = 0; pos < corpus.size(); pos += stride) {
    delta.remove.push_back(corpus.documents()[pos].id());
  }
  return delta;
}

void ExpectSegmentsEqual(const IndistinguishableSegment& actual,
                         const IndistinguishableSegment& expected) {
  EXPECT_EQ(actual.corpus_size(), expected.corpus_size());
  EXPECT_EQ(actual.segment_index(), expected.segment_index());
  EXPECT_DOUBLE_EQ(actual.mu(), expected.mu());
  EXPECT_DOUBLE_EQ(actual.gamma(), expected.gamma());
}

TEST(EpochMigrationTest, MuRecomputedAcrossSegmentBoundaries) {
  // Grow the corpus across a γ-segment boundary for each γ: the migrated
  // segment must match the one a fresh defense would derive, including the
  // segment index bump (γ=2: 300→600 crosses 2^9=512; γ=5: crosses 5^4=625
  // only after the second growth; γ=10: stays inside [100, 1000)).
  for (const double gamma : {2.0, 5.0, 10.0}) {
    SCOPED_TRACE(gamma);
    SyntheticCorpusGenerator generator(GenConfig());
    CorpusManager manager(generator.Generate(300));
    PlainSearchEngine base(manager, 5);
    AsSimpleConfig config;
    config.gamma = gamma;
    AsSimpleEngine engine(base, config);
    ExpectSegmentsEqual(engine.segment(),
                        IndistinguishableSegment(300, gamma));

    for (const size_t add : {300u, 350u}) {
      manager.Apply(AddDocs(generator, add));
      engine.MigrateToCurrentEpoch();
      const size_t n = manager.Current()->NumDocuments();
      ExpectSegmentsEqual(engine.segment(),
                          IndistinguishableSegment(n, gamma));
      EXPECT_EQ(engine.StateEpoch(), manager.CurrentEpoch());
    }
    // 300 → 600 → 950: γ=2 must have crossed a boundary (2^9 = 512).
    if (gamma == 2.0) {
      EXPECT_EQ(engine.segment().segment_index(), 9);
    }
    EXPECT_EQ(engine.stats().epoch_migrations, 2u);
  }
}

TEST(EpochMigrationTest, ExactPowerOfGammaYieldsMuOne) {
  // Land the corpus exactly on γ^i: μ must be exactly 1.0 (the corpus IS
  // the segment bottom), so no trim (1/μ = 1) and maximal edge removal
  // (keep-prob 1/γ).
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager manager(generator.Generate(300));
  PlainSearchEngine base(manager, 5);
  AsSimpleConfig config;
  config.gamma = 2.0;
  AsSimpleEngine engine(base, config);

  manager.Apply(AddDocs(generator, 512 - 300));
  engine.MigrateToCurrentEpoch();
  EXPECT_EQ(engine.segment().corpus_size(), 512u);
  EXPECT_EQ(engine.segment().segment_index(), 9);
  EXPECT_DOUBLE_EQ(engine.segment().mu(), 1.0);
  EXPECT_DOUBLE_EQ(engine.segment().lhs_keep_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(engine.segment().edge_keep_probability(), 0.5);
}

TEST(EpochMigrationTest, GrowThenShrinkRestoresSegment) {
  // Adding documents and then removing the same number returns to the
  // original segment arithmetic bit-for-bit (μ depends only on n and γ).
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager manager(generator.Generate(400));
  PlainSearchEngine base(manager, 5);
  AsSimpleEngine engine(base, AsSimpleConfig{});
  const IndistinguishableSegment original = engine.segment();

  manager.Apply(AddDocs(generator, 200));
  engine.MigrateToCurrentEpoch();
  EXPECT_NE(engine.segment().corpus_size(), original.corpus_size());

  // Remove 200 of the 600 documents (every 3rd position).
  manager.Apply(RemoveEveryNth(manager.Current()->corpus(), 3));
  engine.MigrateToCurrentEpoch();
  ExpectSegmentsEqual(engine.segment(), original);
  EXPECT_EQ(engine.stats().epoch_migrations, 2u);
}

TEST(EpochMigrationTest, MigratedSegmentMatchesFreshDefense) {
  // After any migration chain, the maintained engine's segment must be
  // indistinguishable from a defense constructed fresh on the same base.
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager manager(generator.Generate(333));
  PlainSearchEngine base(manager, 5);
  AsSimpleEngine maintained(base, AsSimpleConfig{});
  manager.Apply(AddDocs(generator, 167));
  manager.Apply(RemoveEveryNth(manager.Current()->corpus(), 7));
  maintained.MigrateToCurrentEpoch();

  AsSimpleEngine fresh(base, AsSimpleConfig{});
  ExpectSegmentsEqual(maintained.segment(), fresh.segment());
  EXPECT_EQ(maintained.StateEpoch(), fresh.StateEpoch());
}

TEST(EpochMigrationTest, ThetaRRemapSurvivesAddsAndDropsRemovedDocs) {
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager manager(generator.Generate(500));
  PlainSearchEngine base(manager, 5);
  AsSimpleEngine engine(base, AsSimpleConfig{});

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  for (const char* text : {"sports", "game", "team", "score", "league",
                           "sports game", "sports team", "game score"}) {
    engine.Search(KeywordQuery::Parse(vocabulary, text));
  }
  ASSERT_GT(engine.NumActivatedDocs(), 0u);
  std::set<DocId> activated;
  for (const Document& doc : manager.Current()->corpus().documents()) {
    if (engine.IsActivated(doc.id())) activated.insert(doc.id());
  }
  ASSERT_EQ(activated.size(), engine.NumActivatedDocs());

  // Pure growth: every activated document survives the remap.
  manager.Apply(AddDocs(generator, 120));
  engine.MigrateToCurrentEpoch();
  EXPECT_EQ(engine.NumActivatedDocs(), activated.size());
  for (const DocId doc : activated) {
    EXPECT_TRUE(engine.IsActivated(doc));
  }

  // Now remove a slice of the corpus; activation must drop by exactly the
  // number of removed-and-activated documents and survive for the rest.
  const CorpusDelta removal = RemoveEveryNth(manager.Current()->corpus(), 4);
  std::set<DocId> removed(removal.remove.begin(), removal.remove.end());
  size_t removed_activated = 0;
  for (const DocId doc : activated) {
    removed_activated += removed.count(doc);
  }
  ASSERT_GT(removed_activated, 0u);
  manager.Apply(removal);
  engine.MigrateToCurrentEpoch();
  EXPECT_EQ(engine.NumActivatedDocs(), activated.size() - removed_activated);
  for (const DocId doc : activated) {
    if (removed.count(doc) == 0) {
      EXPECT_TRUE(engine.IsActivated(doc));
    }
  }
}

TEST(EpochMigrationTest, ArbiHistoryCompactionDropsRemovedDocs) {
  // AS-ARBI history entries must be compacted on migration: answers lose
  // removed documents (a virtual answer may never resurrect a deleted
  // document), and entries whose answers empty out are dropped entirely.
  SyntheticCorpusConfig topical;
  topical.vocabulary_size = 10000;
  topical.num_topics = 96;
  topical.words_per_topic = 300;
  topical.seed = 99;
  SyntheticCorpusGenerator generator(topical);
  CorpusManager manager(generator.Generate(1050));
  PlainSearchEngine base(manager, 50);
  AsArbiEngine engine(base, AsArbiConfig{});

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  for (const char* text : {"sports game", "sports team", "sports score",
                           "sports league", "sports coach"}) {
    engine.Search(KeywordQuery::Parse(vocabulary, text));
  }
  const size_t queries_before = engine.history().NumQueries();
  ASSERT_GT(queries_before, 0u);

  manager.Apply(RemoveEveryNth(manager.Current()->corpus(), 2));
  std::set<DocId> surviving;
  for (const Document& doc : manager.Current()->corpus().documents()) {
    surviving.insert(doc.id());
  }
  engine.MigrateToCurrentEpoch();
  EXPECT_EQ(engine.StateEpoch(), manager.CurrentEpoch());
  EXPECT_EQ(engine.stats().epoch_migrations, 1u);

  EXPECT_LE(engine.history().NumQueries(), queries_before);
  for (size_t i = 0; i < engine.history().NumQueries(); ++i) {
    const HistoryStore::HistoricQuery& entry = engine.history().QueryAt(i);
    EXPECT_FALSE(entry.answer.empty());
    for (const DocId doc : entry.answer) {
      EXPECT_TRUE(surviving.count(doc)) << "historic answer kept a removed "
                                        << "document";
    }
  }
  // Migration is idempotent at the same epoch.
  engine.MigrateToCurrentEpoch();
  EXPECT_EQ(engine.stats().epoch_migrations, 1u);
}

TEST(EpochMigrationTest, DeclineReissueAfterDeleteAnswersFromNewEpoch) {
  // A cached AS-DECLINE answer must not outlive its epoch: after a publish
  // deletes one of the returned documents, the re-issued query is answered
  // within the new epoch's Sel(q), and the history no longer holds the
  // deleted document.
  SyntheticCorpusConfig topical;
  topical.vocabulary_size = 10000;
  topical.num_topics = 96;
  topical.words_per_topic = 300;
  topical.seed = 99;
  SyntheticCorpusGenerator generator(topical);
  CorpusManager manager(generator.Generate(1050));
  PlainSearchEngine base(manager, 50);
  AsDeclineEngine engine(base, AsDeclineConfig{});

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  const KeywordQuery query = KeywordQuery::Parse(vocabulary, "sports game");
  const SearchResult first = engine.Search(query);
  ASSERT_FALSE(first.docs.empty());
  ASSERT_EQ(engine.history().NumQueries(), 1u);
  const DocId deleted = first.docs.front().doc;

  CorpusDelta delta;
  delta.remove.push_back(deleted);
  manager.Apply(delta);

  const SearchResult again = engine.Search(query);
  const std::vector<DocId> sel = base.MatchIds(query);
  for (const DocId doc : again.DocIds()) {
    EXPECT_TRUE(std::binary_search(sel.begin(), sel.end(), doc))
        << "document " << doc << " is not in Sel(q) of the new epoch";
  }
  EXPECT_FALSE(again.Returned(deleted));
  EXPECT_EQ(engine.simple_engine().StateEpoch(), manager.CurrentEpoch());
  for (size_t i = 0; i < engine.history().NumQueries(); ++i) {
    const std::vector<DocId>& answer = engine.history().QueryAt(i).answer;
    EXPECT_EQ(std::count(answer.begin(), answer.end(), deleted), 0)
        << "history entry " << i << " kept the deleted document";
  }
}

TEST(EpochMigrationTest, LazyMigrationHappensOnNextSearch) {
  // Search() migrates lazily: no explicit MigrateToCurrentEpoch call, just
  // a query arriving after a publish.
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager manager(generator.Generate(300));
  PlainSearchEngine base(manager, 5);
  AsSimpleEngine engine(base, AsSimpleConfig{});
  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  engine.Search(KeywordQuery::Parse(vocabulary, "sports"));
  EXPECT_EQ(engine.stats().epoch_migrations, 0u);

  manager.Apply(AddDocs(generator, 150));
  EXPECT_EQ(engine.StateEpoch(), manager.CurrentEpoch() - 1);
  engine.Search(KeywordQuery::Parse(vocabulary, "game"));
  EXPECT_EQ(engine.StateEpoch(), manager.CurrentEpoch());
  EXPECT_EQ(engine.stats().epoch_migrations, 1u);
  EXPECT_EQ(engine.segment().corpus_size(), 450u);
}

}  // namespace
}  // namespace asup
