#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/sharded_service.h"
#include "asup/index/sharded_index.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

// The sharded scatter-gather engine is specified to be *bitwise* equal to
// the single-index serial engine — same documents, same double scores,
// same suppression state — for every shard count and with or without a
// thread pool. These tests pin that contract.

const size_t kShardCounts[] = {1, 2, 3, 4, 7};

std::vector<KeywordQuery> Workload(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* text :
       {"sports", "game", "team", "league", "win", "coach", "season",
        "score", "sports game", "team league win", "game score",
        "sports team coach", "notaword", ""}) {
    queries.push_back(rig.Q(text));
  }
  // A few synthetic vocabulary words, so the workload is not limited to
  // the generator's seeded topic heads.
  const Vocabulary& vocab = rig.corpus->vocabulary();
  for (TermId t = 0; t < 40 && t < vocab.size(); t += 7) {
    queries.push_back(rig.Q(vocab.WordOf(t)));
    if (t + 1 < vocab.size()) {
      queries.push_back(rig.Q(vocab.WordOf(t) + " " + vocab.WordOf(t + 1)));
    }
  }
  return queries;
}

void ExpectBitwiseEqual(const RankedMatches& a, const RankedMatches& b,
                        const std::string& label) {
  EXPECT_EQ(a.total_matches, b.total_matches) << label;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << label;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    EXPECT_EQ(a.docs[i].doc, b.docs[i].doc) << label << " rank " << i;
    // Bitwise, not approximate: the sharded engine scores against the
    // global context with identical arithmetic.
    EXPECT_EQ(a.docs[i].score, b.docs[i].score) << label << " rank " << i;
  }
}

void ExpectBitwiseEqual(const SearchResult& a, const SearchResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << label;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    EXPECT_EQ(a.docs[i].doc, b.docs[i].doc) << label << " rank " << i;
    EXPECT_EQ(a.docs[i].score, b.docs[i].score) << label << " rank " << i;
  }
}

TEST(ShardedIndexTest, PartitionInvariants) {
  Rig rig = MakeRig(503, 10);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex sharded(*rig.corpus, shards);
    ASSERT_EQ(sharded.NumShards(), shards);
    EXPECT_EQ(sharded.NumDocuments(), rig.index->NumDocuments());
    size_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(sharded.ShardBase(s), total);
      total += sharded.Shard(s).NumDocuments();
      // Near-equal ranges: sizes differ by at most one document.
      EXPECT_GE(sharded.Shard(s).NumDocuments(),
                sharded.NumDocuments() / shards);
      EXPECT_LE(sharded.Shard(s).NumDocuments(),
                sharded.NumDocuments() / shards + 1);
    }
    EXPECT_EQ(total, sharded.NumDocuments());
  }
}

TEST(ShardedIndexTest, ShardCountClampedToCorpusSize) {
  Rig rig = MakeRig(3, 2);
  ShardedInvertedIndex sharded(*rig.corpus, 16);
  EXPECT_EQ(sharded.NumShards(), 3u);
  ShardedInvertedIndex zero(*rig.corpus, 0);
  EXPECT_EQ(zero.NumShards(), 1u);
}

TEST(ShardedIndexTest, GlobalStatsMatchSingleIndex) {
  Rig rig = MakeRig(617, 10);
  const IndexStats& single = rig.index->stats();
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex sharded(*rig.corpus, shards);
    EXPECT_EQ(sharded.stats().num_documents, single.num_documents);
    EXPECT_EQ(sharded.stats().num_terms, single.num_terms);
    EXPECT_EQ(sharded.stats().num_postings, single.num_postings);
    // Bitwise: the average is computed with the same arithmetic.
    EXPECT_EQ(sharded.stats().average_doc_length, single.average_doc_length);
    for (TermId t = 0; t < rig.corpus->vocabulary().size(); ++t) {
      ASSERT_EQ(sharded.DocumentFrequency(t), rig.index->DocumentFrequency(t))
          << "term " << t;
    }
  }
}

TEST(ShardedIndexTest, LocalIdSpaceIsSingleIndexLocalIdSpace) {
  Rig rig = MakeRig(229, 10);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex sharded(*rig.corpus, shards);
    const uint32_t n = static_cast<uint32_t>(sharded.NumDocuments());
    for (uint32_t local = 0; local < n; ++local) {
      EXPECT_EQ(sharded.LocalToId(local), rig.index->LocalToId(local));
      EXPECT_EQ(sharded.LocalOf(sharded.LocalToId(local)), local);
      const size_t s = sharded.ShardOfLocal(local);
      ASSERT_LT(s, sharded.NumShards());
      EXPECT_EQ(sharded.ShardBase(s) +
                    sharded.Shard(s).LocalOf(sharded.LocalToId(local)),
                local);
    }
  }
}

class ShardedEngineEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedEngineEquivalenceTest, MatchingIsBitwiseEqualToSingleIndex) {
  const bool with_pool = GetParam();
  Rig rig = MakeRig(700, 10);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(4) : nullptr;
  const auto queries = Workload(rig);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService engine(index, rig.engine->k(), pool.get());
    for (const KeywordQuery& q : queries) {
      const std::string label =
          "shards=" + std::to_string(shards) + " q=\"" + q.canonical() + "\"";
      ExpectBitwiseEqual(engine.TopMatches(q, 25),
                         rig.engine->TopMatches(q, 25), label);
      EXPECT_EQ(engine.MatchCount(q), rig.engine->MatchCount(q)) << label;
      EXPECT_EQ(engine.MatchIds(q), rig.engine->MatchIds(q)) << label;
      const std::vector<DocId> ids = rig.engine->MatchIds(q);
      const auto sharded_ranked = engine.RankDocs(q, ids);
      const auto single_ranked = rig.engine->RankDocs(q, ids);
      ASSERT_EQ(sharded_ranked.size(), single_ranked.size()) << label;
      for (size_t i = 0; i < sharded_ranked.size(); ++i) {
        EXPECT_EQ(sharded_ranked[i].doc, single_ranked[i].doc) << label;
        EXPECT_EQ(sharded_ranked[i].score, single_ranked[i].score) << label;
      }
    }
  }
}

TEST_P(ShardedEngineEquivalenceTest, SearchResultsAreBitwiseEqual) {
  const bool with_pool = GetParam();
  Rig rig = MakeRig(450, 5);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(3) : nullptr;
  const auto queries = Workload(rig);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService engine(index, rig.engine->k(), pool.get());
    for (const KeywordQuery& q : queries) {
      ExpectBitwiseEqual(engine.Search(q), rig.engine->Search(q),
                         "shards=" + std::to_string(shards));
    }
  }
}

TEST_P(ShardedEngineEquivalenceTest, AsSimpleOverShardedIsBitwiseEqual) {
  const bool with_pool = GetParam();
  Rig rig = MakeRig(520, 5);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(4) : nullptr;
  const auto queries = Workload(rig);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService sharded_base(index, rig.engine->k(), pool.get());

    AsSimpleConfig config;
    config.gamma = 2.0;
    AsSimpleEngine over_plain(*rig.engine, config);
    AsSimpleEngine over_sharded(sharded_base, config);

    // Same segment: suppression sees one logical corpus either way.
    EXPECT_EQ(over_sharded.segment().segment_index(),
              over_plain.segment().segment_index());
    EXPECT_EQ(over_sharded.segment().mu(), over_plain.segment().mu());

    for (const KeywordQuery& q : queries) {
      ExpectBitwiseEqual(over_sharded.Search(q), over_plain.Search(q),
                         "shards=" + std::to_string(shards) + " q=\"" +
                             q.canonical() + "\"");
    }
    // Θ_R evolved identically...
    EXPECT_EQ(over_sharded.NumActivatedDocs(), over_plain.NumActivatedDocs());
    for (DocId doc = 0; doc < 40; ++doc) {
      EXPECT_EQ(over_sharded.IsActivated(doc), over_plain.IsActivated(doc));
    }
    // ...and the serialized defense states are byte-identical.
    std::ostringstream plain_bytes, sharded_bytes;
    ASSERT_TRUE(SaveDefenseState(over_plain, plain_bytes));
    ASSERT_TRUE(SaveDefenseState(over_sharded, sharded_bytes));
    EXPECT_EQ(plain_bytes.str(), sharded_bytes.str())
        << "shards=" << shards;
  }
}

TEST_P(ShardedEngineEquivalenceTest, AsArbiOverShardedIsBitwiseEqual) {
  const bool with_pool = GetParam();
  Rig rig = MakeTopicalRig(600, 5);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(4) : nullptr;
  const auto queries = Workload(rig);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService sharded_base(index, rig.engine->k(), pool.get());

    AsArbiConfig config;
    config.simple.gamma = 2.0;
    AsArbiEngine over_plain(*rig.engine, config);
    AsArbiEngine over_sharded(sharded_base, config);

    for (const KeywordQuery& q : queries) {
      ExpectBitwiseEqual(over_sharded.Search(q), over_plain.Search(q),
                         "shards=" + std::to_string(shards) + " q=\"" +
                             q.canonical() + "\"");
      // Re-issue immediately: both must hit their caches with the same
      // answer (deterministic processing, Section 2.1).
      ExpectBitwiseEqual(over_sharded.Search(q), over_plain.Search(q),
                         "reissue shards=" + std::to_string(shards));
    }
    // The two engines took the same virtual/simple decisions...
    EXPECT_EQ(over_sharded.stats().virtual_answers,
              over_plain.stats().virtual_answers);
    EXPECT_EQ(over_sharded.stats().simple_answers,
              over_plain.stats().simple_answers);
    EXPECT_EQ(over_sharded.history().NumQueries(),
              over_plain.history().NumQueries());
    // ...and the full serialized state (Θ_R + history + cache) is
    // byte-identical.
    std::ostringstream plain_bytes, sharded_bytes;
    ASSERT_TRUE(SaveDefenseState(over_plain, plain_bytes));
    ASSERT_TRUE(SaveDefenseState(over_sharded, sharded_bytes));
    EXPECT_EQ(plain_bytes.str(), sharded_bytes.str())
        << "shards=" << shards;
  }
}

TEST_P(ShardedEngineEquivalenceTest, AsDeclineOverShardedIsBitwiseEqual) {
  const bool with_pool = GetParam();
  Rig rig = MakeTopicalRig(600, 5);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(4) : nullptr;
  const auto queries = Workload(rig);
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService sharded_base(index, rig.engine->k(), pool.get());

    AsDeclineConfig config;
    config.simple.gamma = 2.0;
    AsDeclineEngine over_plain(*rig.engine, config);
    AsDeclineEngine over_sharded(sharded_base, config);

    for (const KeywordQuery& q : queries) {
      ExpectBitwiseEqual(over_sharded.Search(q), over_plain.Search(q),
                         "shards=" + std::to_string(shards) + " q=\"" +
                             q.canonical() + "\"");
      ExpectBitwiseEqual(over_sharded.Search(q), over_plain.Search(q),
                         "reissue shards=" + std::to_string(shards));
    }
    EXPECT_EQ(over_sharded.stats().declined, over_plain.stats().declined);
    EXPECT_EQ(over_sharded.stats().simple_answers,
              over_plain.stats().simple_answers);
    std::ostringstream plain_bytes, sharded_bytes;
    ASSERT_TRUE(SaveDefenseState(over_plain, plain_bytes));
    ASSERT_TRUE(SaveDefenseState(over_sharded, sharded_bytes));
    EXPECT_EQ(plain_bytes.str(), sharded_bytes.str())
        << "shards=" << shards;
  }
}

TEST_P(ShardedEngineEquivalenceTest, StateRoundTripsAcrossEngineKinds) {
  // A snapshot taken over the sharded engine restores into an AS-SIMPLE
  // over the single index (and vice versa): the dense local id space is
  // identical, so persisted Θ_R is portable across deployments.
  const bool with_pool = GetParam();
  Rig rig = MakeRig(380, 5);
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(2) : nullptr;
  ShardedInvertedIndex index(*rig.corpus, 3);
  ShardedSearchService sharded_base(index, rig.engine->k(), pool.get());

  AsSimpleConfig config;
  AsSimpleEngine over_sharded(sharded_base, config);
  for (const KeywordQuery& q : Workload(rig)) over_sharded.Search(q);

  std::stringstream bytes;
  ASSERT_TRUE(SaveDefenseState(over_sharded, bytes));
  AsSimpleEngine restored(*rig.engine, config);
  ASSERT_TRUE(LoadDefenseState(restored, bytes));
  EXPECT_EQ(restored.NumActivatedDocs(), over_sharded.NumActivatedDocs());
  ExpectBitwiseEqual(restored.Search(rig.Q("sports")),
                     over_sharded.Search(rig.Q("sports")), "restored");
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, ShardedEngineEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithThreadPool" : "Serial";
                         });

}  // namespace
}  // namespace asup
