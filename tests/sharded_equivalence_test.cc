#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/sharded_index.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/processors.h"
#include "asup/suppress/state_io.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::FanOutCorpus;
using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;
using testing_util::TasksQueuedBy;

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
    const SnapshotHandle snapshot = CorpusSnapshot::Borrow(sharded);
    ASSERT_EQ(snapshot->num_shards(), shards);
    const size_t n = sharded.NumDocuments();
    size_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      const DocRange range = snapshot->Shard(s);
      // Contiguous and covering: each range starts where the last ended.
      EXPECT_EQ(range.lo, total);
      ASSERT_LE(range.lo, range.hi);
      total = range.hi;
      // Near-equal ranges: sizes differ by at most one document.
      EXPECT_GE(range.hi - range.lo, n / shards);
      EXPECT_LE(range.hi - range.lo, n / shards + 1);
    }
    EXPECT_EQ(total, n);
  }
}

TEST(ShardedIndexTest, ShardCountClampedToCorpusSize) {
  Rig rig = MakeRig(3, 2);
  ShardedInvertedIndex sharded(*rig.corpus, 16);
  EXPECT_EQ(sharded.NumShards(), 3u);
  ShardedInvertedIndex zero(*rig.corpus, 0);
  EXPECT_EQ(zero.NumShards(), 1u);
  // [1, n], and one (empty) partition over an empty index.
  EXPECT_EQ(ClampShardCount(4, 3), 3u);
  EXPECT_EQ(ClampShardCount(2, 3), 2u);
  EXPECT_EQ(ClampShardCount(4, 0), 1u);
  EXPECT_EQ(ShardRange(0, 1, 0).lo, 0u);
  EXPECT_EQ(ShardRange(0, 1, 0).hi, 0u);
}

TEST(ShardedIndexTest, GlobalStatsMatchSingleIndex) {
  Rig rig = MakeRig(617, 10);
  const IndexStats& single = rig.index->stats();
  for (size_t shards : kShardCounts) {
    ShardedInvertedIndex sharded(*rig.corpus, shards);
    EXPECT_EQ(sharded.stats().num_documents, single.num_documents);
    EXPECT_EQ(sharded.stats().num_terms, single.num_terms);
    EXPECT_EQ(sharded.stats().num_postings, single.num_postings);
    // Partitions are ranges of one index, so its postings are the single
    // index's, byte for byte.
    EXPECT_EQ(sharded.stats().posting_bytes, single.posting_bytes);
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

// The materialize-score-sort oracle the streamed top-k must equal: every
// match of the single index scored with the engine's default scorer, fully
// sorted in RankBefore order, then cut to `limit`.
RankedMatches OracleTop(const InvertedIndex& index, const QueryNode& node,
                        std::span<const TermId> terms, size_t limit) {
  const std::unique_ptr<ScoringFunction> scorer = MakeDefaultScorer();
  const ScoringContext context = MakeScoringContext(index, terms, *scorer);
  const MatchList matches = ExecuteMatch(index, node, terms);
  RankedMatches out;
  out.total_matches = matches.size();
  for (size_t i = 0; i < matches.size(); ++i) {
    // Through DocAt, not the flat columns: the independent check of them.
    const Document& doc = index.DocAt(matches.local_docs[i]);
    out.docs.push_back(
        {doc.id(), scorer->ScoreMatch(context,
                                      static_cast<double>(doc.length()),
                                      matches.FreqsOf(i))});
  }
  std::sort(out.docs.begin(), out.docs.end(), RankBefore);
  out.docs.resize(std::min(limit, out.docs.size()));
  return out;
}

TEST_P(ShardedEngineEquivalenceTest, StreamedTopKEqualsSortOracle) {
  const bool with_pool = GetParam();
  const Corpus corpus = FanOutCorpus(/*copies=*/3);
  const InvertedIndex single(corpus);
  const Vocabulary& vocab = corpus.vocabulary();
  const auto term = [&](const char* word) {
    return QueryNode::Term(*vocab.Lookup(word));
  };
  const std::vector<QueryNode> queries = {
      term("common"),
      term("rare"),
      term("w3"),
      QueryNode::And({term("common"), term("w0")}),
      QueryNode::And({term("w1"), term("w2"), term("w5")}),
      QueryNode::And({term("common"), term("rare")}),
      QueryNode::Or({term("rare"), term("w7")}),
      QueryNode::Or({term("w4"), term("w8"), term("w9")}),
      QueryNode::And({term("w6"), QueryNode::Not(term("w10"))}),
      QueryNode::MakeEmpty(),
  };
  constexpr size_t kK = 5;
  constexpr size_t kGammaK = 10;
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(3) : nullptr;
  for (size_t shards : kShardCounts) {
    const ShardedInvertedIndex index(corpus, shards);
    const ShardedSearchService engine(index, kK, pool.get());
    const SnapshotHandle snapshot = engine.PinSnapshot();
    if (pool != nullptr) {
      // Both sides of the rule are reached through the corpus alone: only
      // "common" passes the fan-out estimate, and every entry point takes
      // the same side.
      const auto fans_out = [&](const QueryNode& node) {
        const std::vector<TermId> terms = node.CollectTerms();
        const auto top = [&] {
          engine.TopMatchesNodeIn(*snapshot, node, terms, kK);
        };
        const auto count = [&] { engine.MatchCountNodeIn(*snapshot, node); };
        const auto ids = [&] { engine.MatchIdsNodeIn(*snapshot, node); };
        const bool scattered = TasksQueuedBy(*pool, top) > 0;
        EXPECT_EQ(TasksQueuedBy(*pool, count) > 0, scattered);
        EXPECT_EQ(TasksQueuedBy(*pool, ids) > 0, scattered);
        return scattered;
      };
      EXPECT_EQ(fans_out(term("common")), shards > 1);
      EXPECT_FALSE(fans_out(term("rare")));
      EXPECT_FALSE(fans_out(QueryNode::And({term("common"), term("rare")})));
    }
    for (const QueryNode& node : queries) {
      const std::vector<TermId> terms = node.CollectTerms();
      const size_t sel = ExecuteCount(single, node);
      std::vector<size_t> limits = {0, 1, kK, kGammaK, sel, sel + 5};
      if (sel > 0) limits.push_back(sel - 1);
      for (size_t limit : limits) {
        const std::string label = "shards=" + std::to_string(shards) +
                                  " |Sel|=" + std::to_string(sel) +
                                  " limit=" + std::to_string(limit);
        ExpectBitwiseEqual(
            engine.TopMatchesNodeIn(*snapshot, node, terms, limit),
            OracleTop(single, node, terms, limit), label);
      }
      EXPECT_EQ(engine.MatchCountNodeIn(*snapshot, node), sel);
      std::vector<DocId> ids;
      for (uint32_t local : ExecuteMatch(single, node, {}).local_docs) {
        ids.push_back(single.LocalToId(local));
      }
      EXPECT_EQ(engine.MatchIdsNodeIn(*snapshot, node), ids);
    }
  }
}

// A corpus of kFanOutMinPostings documents, all holding "common"; for each
// entry B of `bounds`, "at<i>" occurs in exactly B documents and "over<i>"
// in B + 1, spread over the whole id range so every shard count splits
// them.
Corpus BoundCorpus(const std::vector<size_t>& bounds) {
  auto vocab = std::make_shared<Vocabulary>();
  const TermId common = vocab->AddWord("common");
  const size_t num_docs = kFanOutMinPostings;
  std::vector<std::vector<TermId>> tokens(num_docs,
                                          std::vector<TermId>{common});
  for (size_t i = 0; i < bounds.size(); ++i) {
    const std::string suffix = std::to_string(i);
    const TermId at = vocab->AddWord("at" + suffix);
    const TermId over = vocab->AddWord("over" + suffix);
    for (size_t j = 0; j <= bounds[i]; ++j) {
      const size_t doc = (j * num_docs / (bounds[i] + 1) + i) % num_docs;
      if (j < bounds[i]) tokens[doc].push_back(at);
      tokens[doc].push_back(over);
      // Scores differ by document length, so ranking is not id order.
      for (size_t pad = 0; pad < j % 3; ++pad) tokens[doc].push_back(common);
    }
  }
  std::vector<Document> docs;
  for (size_t id = 0; id < num_docs; ++id) {
    docs.emplace_back(static_cast<DocId>(id), tokens[id]);
  }
  return Corpus(vocab, std::move(docs));
}

TEST_P(ShardedEngineEquivalenceTest, CarriedLocalsAndBoundedIdsFromOneWalk) {
  const bool with_pool = GetParam();
  constexpr size_t kK = 10;
  constexpr size_t kGammaK = 20;
  constexpr size_t kCoverSize = 5;
  // The id-sink bound of a cover defense is the largest |Sel(q)| its
  // trigger accepts.
  std::vector<size_t> bounds;
  for (double ratio : {1.0, 0.5, 0.3}) {
    const DefenseHistory history(kCoverSize, ratio);
    const size_t bound = history.MaxPlausibleMatches(kK);
    EXPECT_TRUE(history.TriggerPlausible(bound, kK)) << ratio;
    EXPECT_FALSE(history.TriggerPlausible(bound + 1, kK)) << ratio;
    bounds.push_back(bound);
  }
  const Corpus corpus = BoundCorpus(bounds);
  const Vocabulary& vocab = corpus.vocabulary();
  const auto term = [&](const std::string& word) {
    return QueryNode::Term(*vocab.Lookup(word));
  };
  // Or-ing in Not(common), which matches nothing, lifts a query's
  // fan-out estimate to the corpus size without changing its matches.
  const auto fanned = [&](const QueryNode& node) {
    return QueryNode::Or({node, QueryNode::Not(term("common"))});
  };
  std::unique_ptr<ThreadPool> pool =
      with_pool ? std::make_unique<ThreadPool>(3) : nullptr;
  for (size_t shards : kShardCounts) {
    const ShardedInvertedIndex index(corpus, shards);
    const ShardedSearchService engine(index, kK, pool.get());
    const SnapshotHandle snapshot = engine.PinSnapshot();
    // Runs `walk` and checks it took the side the fan-out rule gives.
    const auto on_side = [&](bool scatters, const auto& walk) {
      RankedMatches out;
      const auto call = [&] { out = walk(); };
      if (pool == nullptr) {
        call();
      } else {
        EXPECT_EQ(TasksQueuedBy(*pool, call) > 0, scatters && shards > 1)
            << "shards=" << shards;
      }
      return out;
    };

    for (size_t i = 0; i < bounds.size(); ++i) {
      const std::string suffix = std::to_string(i);
      for (const bool scatter : {false, true}) {
        const QueryNode at = scatter ? fanned(term("at" + suffix))
                                     : term("at" + suffix);
        const QueryNode over = scatter ? fanned(term("over" + suffix))
                                       : term("over" + suffix);
        const std::string label = "shards=" + std::to_string(shards) +
                                  " bound=" + std::to_string(bounds[i]) +
                                  (scatter ? " scattered" : " inline");
        const std::vector<TermId> at_terms = at.CollectTerms();
        const std::vector<TermId> over_terms = over.CollectTerms();
        const MatchOptions options{/*carry_locals=*/true, bounds[i]};

        // |Sel(q)| at the bound: the one walk lists every match, exactly
        // MatchIdsNodeIn's list.
        const RankedMatches within = on_side(scatter, [&] {
          return engine.TopMatchesNodeIn(*snapshot, at, at_terms, kGammaK,
                                         options);
        });
        ASSERT_EQ(within.total_matches, bounds[i]) << label;
        EXPECT_TRUE(options.HasIds(within.total_matches)) << label;
        EXPECT_EQ(within.ids, engine.MatchIdsNodeIn(*snapshot, at)) << label;
        // M(q) itself is the walk without extras, bitwise.
        ExpectBitwiseEqual(
            within,
            engine.TopMatchesNodeIn(*snapshot, at, at_terms, kGammaK),
            label);

        // One above the bound: the list is discarded.
        const RankedMatches beyond = on_side(scatter, [&] {
          return engine.TopMatchesNodeIn(*snapshot, over, over_terms,
                                         kGammaK, options);
        });
        ASSERT_EQ(beyond.total_matches, bounds[i] + 1) << label;
        EXPECT_FALSE(options.HasIds(beyond.total_matches)) << label;
        EXPECT_TRUE(beyond.ids.empty()) << label;

        // Carried local ids are the documents' own, at every limit.
        for (const QueryNode* node : {&at, &over}) {
          const std::vector<TermId> terms = node->CollectTerms();
          const size_t sel = engine.MatchCountNodeIn(*snapshot, *node);
          for (size_t limit : {size_t{1}, kK, kGammaK, sel + 5}) {
            const RankedMatches carried = on_side(scatter, [&] {
              return engine.TopMatchesNodeIn(*snapshot, *node, terms, limit,
                                             {/*carry_locals=*/true, 0});
            });
            const RankedMatches plain =
                engine.TopMatchesNodeIn(*snapshot, *node, terms, limit);
            const std::string at_limit =
                label + " limit=" + std::to_string(limit);
            ExpectBitwiseEqual(carried, plain, at_limit);
            EXPECT_TRUE(plain.locals.empty()) << at_limit;
            EXPECT_TRUE(carried.ids.empty()) << at_limit;
            ASSERT_EQ(carried.locals.size(), carried.docs.size()) << at_limit;
            for (size_t r = 0; r < carried.docs.size(); ++r) {
              EXPECT_EQ(carried.locals[r],
                        snapshot->LocalOf(carried.docs[r].doc))
                  << at_limit << " rank " << r;
            }
          }
        }
      }
    }
  }
}

TEST(OneShardEngineTest, OneShardDeploymentsAnswerAsTheSingleIndex) {
  // The single index is the 1-partition case of the one engine. Both
  // 1-partition deployments — a CorpusManager with num_shards 1 and a
  // static 1-partition ShardedInvertedIndex — take the engine's inline path
  // and must answer, rank and evolve defense state exactly like the engine
  // over the single index.
  Rig rig = MakeTopicalRig(600, 5);
  CorpusManager::Options options;
  options.num_shards = 1;
  CorpusManager manager(
      Corpus(rig.corpus->vocabulary_ptr(), rig.corpus->documents()), options);
  ASSERT_EQ(manager.Current()->num_shards(), 1u);
  ShardedInvertedIndex static_index(*rig.corpus, 1);
  ShardedSearchService over_manager(manager, rig.engine->k());
  ShardedSearchService over_static(static_index, rig.engine->k());

  const auto queries = Workload(rig);
  for (MatchingEngine* engine : {&over_manager, &over_static}) {
    const std::string deployment =
        engine == &over_manager ? "manager" : "static";
    for (const KeywordQuery& q : queries) {
      const std::string label = deployment + " q=\"" + q.canonical() + "\"";
      ExpectBitwiseEqual(engine->Search(q), rig.engine->Search(q), label);
      const std::vector<DocId> ids = rig.engine->MatchIds(q);
      EXPECT_EQ(engine->MatchIds(q), ids) << label;
      const auto ranked = engine->RankDocs(q, ids);
      const auto single_ranked = rig.engine->RankDocs(q, ids);
      ASSERT_EQ(ranked.size(), single_ranked.size()) << label;
      for (size_t i = 0; i < ranked.size(); ++i) {
        EXPECT_EQ(ranked[i].doc, single_ranked[i].doc) << label;
        EXPECT_EQ(ranked[i].score, single_ranked[i].score) << label;
      }
    }

    AsSimpleConfig simple_config;
    simple_config.gamma = 2.0;
    AsSimpleEngine simple_single(*rig.engine, simple_config);
    AsSimpleEngine simple_one_shard(*engine, simple_config);
    AsArbiConfig arbi_config;
    arbi_config.simple.gamma = 2.0;
    AsArbiEngine arbi_single(*rig.engine, arbi_config);
    AsArbiEngine arbi_one_shard(*engine, arbi_config);
    for (const KeywordQuery& q : queries) {
      ExpectBitwiseEqual(simple_one_shard.Search(q), simple_single.Search(q),
                         deployment + " AS-SIMPLE");
      ExpectBitwiseEqual(arbi_one_shard.Search(q), arbi_single.Search(q),
                         deployment + " AS-ARBI");
    }
    std::ostringstream single_bytes, one_shard_bytes;
    ASSERT_TRUE(SaveDefenseState(simple_single, single_bytes));
    ASSERT_TRUE(SaveDefenseState(simple_one_shard, one_shard_bytes));
    EXPECT_EQ(one_shard_bytes.str(), single_bytes.str()) << deployment;
    std::ostringstream arbi_single_bytes, arbi_one_shard_bytes;
    ASSERT_TRUE(SaveDefenseState(arbi_single, arbi_single_bytes));
    ASSERT_TRUE(SaveDefenseState(arbi_one_shard, arbi_one_shard_bytes));
    EXPECT_EQ(arbi_one_shard_bytes.str(), arbi_single_bytes.str())
        << deployment;
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, ShardedEngineEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithThreadPool" : "Serial";
                         });

}  // namespace
}  // namespace asup
