// The deterministic concurrency harness of the parallel batch subsystem:
// identical workloads are executed serially and concurrently and the
// answers compared bitwise. Run these under ThreadSanitizer
// (-DASUP_SANITIZE=thread) to turn the interleavings the harness provokes
// into detected races rather than silent corruption.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/sharded_index.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/thread_pool.h"
#include "asup/workload/aol_like.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::FanOutCorpus;
using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;
using testing_util::TasksQueuedBy;

std::vector<KeywordQuery> AolLog(const Rig& rig, size_t size) {
  AolLikeConfig config;
  config.log_size = size;
  config.unique_queries = size / 3;
  AolLikeWorkload workload(*rig.corpus, config);
  return workload.log();
}

void ExpectBitwiseEqual(const SearchResult& a, const SearchResult& b,
                        size_t at) {
  ASSERT_EQ(a.status, b.status) << "query " << at;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << "query " << at;
  for (size_t d = 0; d < a.docs.size(); ++d) {
    ASSERT_EQ(a.docs[d].doc, b.docs[d].doc) << "query " << at;
    ASSERT_EQ(a.docs[d].score, b.docs[d].score) << "query " << at;
  }
}

TEST(ConcurrencyStressTest, PlainEngineSerialVsConcurrentEquivalence) {
  // The undefended engine is stateless, so free-running concurrency must
  // already be bitwise equivalent to a serial loop.
  Rig rig = MakeRig(800, 5);
  const auto log = AolLog(rig, 600);

  std::vector<SearchResult> serial;
  serial.reserve(log.size());
  for (const auto& query : log) serial.push_back(rig.engine->Search(query));

  ThreadPool pool(8);
  const auto concurrent =
      BatchExecutor(pool).ExecuteConcurrent(*rig.engine, log);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectBitwiseEqual(concurrent[i], serial[i], i);
  }
}

TEST(ConcurrencyStressTest, PooledShardFanOutUnderConcurrentCallers) {
  // Several client threads share one pooled 4-shard engine. "common" is in
  // every document, so its queries pass kFanOutMinPostings and scatter to
  // the shared pool while the others run inline on their callers: pool
  // chunks, per-shard slots and the merge all interleave across callers.
  // Every answer must equal the single-index engine's, bitwise.
  const Corpus corpus = FanOutCorpus(/*copies=*/2);
  const InvertedIndex single(corpus);
  constexpr size_t kTopK = 5;
  const PlainSearchEngine reference(single, kTopK);
  const ShardedInvertedIndex sharded(corpus, 4);
  ThreadPool pool(3);
  ShardedSearchService engine(sharded, kTopK, &pool);
  const Vocabulary& vocab = corpus.vocabulary();
  const std::vector<KeywordQuery> queries = {
      KeywordQuery::Parse(vocab, "common"),
      KeywordQuery::Parse(vocab, "common w1"),
      KeywordQuery::Parse(vocab, "rare"),
      KeywordQuery::Parse(vocab, "w2 w3"),
  };
  ASSERT_GT(TasksQueuedBy(pool, [&] { engine.TopMatches(queries[0], 1); }),
            0u);
  ASSERT_EQ(TasksQueuedBy(pool, [&] { engine.TopMatches(queries[2], 1); }),
            0u);

  std::vector<RankedMatches> expected;
  for (const KeywordQuery& q : queries) {
    expected.push_back(reference.TopMatches(q, 2 * kTopK));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (size_t round = 0; round < 12; ++round) {
        const size_t qi = (round + t) % queries.size();
        const RankedMatches got = engine.TopMatches(queries[qi], 2 * kTopK);
        bool same = got.total_matches == expected[qi].total_matches &&
                    got.docs.size() == expected[qi].docs.size();
        for (size_t d = 0; same && d < got.docs.size(); ++d) {
          same = got.docs[d].doc == expected[qi].docs[d].doc &&
                 got.docs[d].score == expected[qi].docs[d].score;
        }
        if (!same) mismatches.fetch_add(1);
        if (engine.MatchCount(queries[qi]) != expected[qi].total_matches) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyStressTest, DefendedSerialVsDeterministicParallelEquivalence) {
  // The headline equivalence: a stateful AS-ARBI engine executed through
  // the deterministic parallel batch produces bitwise-identical answers —
  // and identical suppression state — to a serial engine over an identical
  // corpus, no matter how the prefetch phase interleaves.
  Rig serial_rig = MakeTopicalRig(2000, 5, /*seed=*/17);
  Rig batch_rig = MakeTopicalRig(2000, 5, /*seed=*/17);
  AsArbiConfig config;
  AsArbiEngine serial_engine(*serial_rig.engine, config);
  AsArbiEngine batch_engine(*batch_rig.engine, config);
  const auto log = AolLog(serial_rig, 900);

  std::vector<SearchResult> serial;
  serial.reserve(log.size());
  for (const auto& query : log) serial.push_back(serial_engine.Search(query));

  ThreadPool pool(8);
  const auto batched =
      BatchExecutor(pool).ExecuteDeterministic(batch_engine, log);

  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectBitwiseEqual(batched[i], serial[i], i);
  }
  EXPECT_EQ(batch_engine.history().NumQueries(),
            serial_engine.history().NumQueries());
  EXPECT_EQ(batch_engine.simple_engine().NumActivatedDocs(),
            serial_engine.simple_engine().NumActivatedDocs());
  EXPECT_EQ(batch_engine.stats().virtual_answers,
            serial_engine.stats().virtual_answers);
}

TEST(ConcurrencyStressTest, SameQuerySameAnswerUnderFreeRunningThreads) {
  // Section 2.1's determinism guarantee under concurrency: every
  // observation of a query — from any thread, at any interleaving — must
  // equal every other observation of that query.
  Rig rig = MakeRig(800, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});

  const auto log = AolLog(rig, 60);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;

  std::vector<std::map<std::string, std::vector<DocId>>> seen(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> intra_thread_mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Thread-dependent order, so claims and cache hits interleave.
        const auto& query = log[(round * (t + 3) + t) % log.size()];
        const std::vector<DocId> docs = defended.Search(query).DocIds();
        auto [it, inserted] = seen[t].try_emplace(query.canonical(), docs);
        if (!inserted && it->second != docs) {
          intra_thread_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(intra_thread_mismatches.load(), 0);

  // Cross-thread and cross-time: every observation equals a serial
  // re-issue after the storm (which is a cache hit by construction).
  for (const auto& per_thread : seen) {
    for (const auto& [canonical, docs] : per_thread) {
      for (const auto& query : log) {
        if (query.canonical() != canonical) continue;
        EXPECT_EQ(defended.Search(query).DocIds(), docs)
            << "query '" << canonical << "'";
        break;
      }
    }
  }
}

TEST(ConcurrencyStressTest, InvariantsHoldUnderFreeRunningThreads) {
  // Regardless of interleaving: |answer| <= k, every answered document
  // matches the query, and underflow <=> empty answer.
  Rig rig = MakeRig(700, 5);
  AsSimpleEngine defended(*rig.engine, AsSimpleConfig{});
  const auto log = AolLog(rig, 80);

  std::atomic<int> violations{0};
  ThreadPool pool(8);
  pool.ParallelFor(log.size() * 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& query = log[i % log.size()];
      const SearchResult result = defended.Search(query);
      if (result.docs.size() > defended.k()) violations.fetch_add(1);
      if (result.docs.empty() !=
          (result.status == QueryStatus::kUnderflow)) {
        violations.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);

  // Subset-of-match-set, verified serially against the undefended engine.
  for (const auto& query : log) {
    std::vector<DocId> matches = rig.engine->MatchIds(query);
    std::sort(matches.begin(), matches.end());
    for (DocId doc : defended.Search(query).DocIds()) {
      EXPECT_TRUE(std::binary_search(matches.begin(), matches.end(), doc))
          << "non-matching doc in answer of '" << query.canonical() << "'";
    }
  }
}

TEST(ConcurrencyStressTest, ConcurrentBatchesOnOneEngine) {
  // Whole batches issued from several client threads at once, each fanned
  // out by BatchExecutor, against one shared defended engine.
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  ThreadPool pool(4);
  const BatchExecutor executor(pool);
  const auto log = AolLog(rig, 120);

  std::vector<std::thread> clients;
  std::atomic<int> violations{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      const auto results = executor.ExecuteConcurrent(defended, log);
      if (results.size() != log.size()) violations.fetch_add(1);
      for (const auto& result : results) {
        if (result.docs.size() > defended.k()) violations.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(violations.load(), 0);

  // All duplicate issues of each query collapsed to one cached answer.
  for (const auto& query : log) {
    const auto a = defended.Search(query).DocIds();
    const auto b = defended.Search(query).DocIds();
    EXPECT_EQ(a, b);
  }
}

TEST(ConcurrencyStressTest, AnswerCacheSurvivesEpochMigrationStorm) {
  // The lock-order edge the static analysis pins down with
  // ASUP_ACQUIRED_BEFORE (epoch before history, DESIGN.md §13), provoked
  // dynamically: searcher threads hold the epoch lock shared and dip into
  // the history lock for cover checks and recording, while a mutator
  // thread publishes new corpus epochs. Each publish makes the next
  // Search() migrate lazily — taking the epoch lock exclusive and then the
  // history lock for compaction — mid-storm. Duplicate queries keep the
  // AnswerCache claim/publish protocol hot across the epoch flips. Under
  // ThreadSanitizer (-DASUP_SANITIZE=thread) any ordering or publication
  // bug the annotations claim to rule out becomes a reported race or
  // deadlock here.
  SyntheticCorpusConfig gen_config;
  gen_config.vocabulary_size = 2000;
  gen_config.num_topics = 12;
  gen_config.words_per_topic = 150;
  gen_config.seed = 23;
  SyntheticCorpusGenerator generator(gen_config);
  CorpusManager manager(generator.Generate(400));
  constexpr size_t kTopK = 5;
  PlainSearchEngine base(manager, kTopK);
  AsArbiEngine defended(base, AsArbiConfig{});

  AolLikeConfig log_config;
  log_config.log_size = 90;
  log_config.unique_queries = 30;  // duplicates exercise the cache
  const auto log = [&] {
    const auto snapshot = manager.Current();
    return AolLikeWorkload(snapshot->corpus(), log_config).log();
  }();

  constexpr int kSearchers = 6;
  constexpr int kRounds = 60;
  constexpr int kEpochs = 4;
  std::atomic<int> violations{0};
  std::atomic<bool> mutating{true};

  std::vector<std::thread> searchers;
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const auto& query = log[(round * (t + 5) + t) % log.size()];
        const SearchResult result = defended.Search(query);
        if (result.docs.size() > kTopK) violations.fetch_add(1);
      }
    });
  }
  std::thread mutator([&] {
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      CorpusDelta delta;
      const Corpus fresh = generator.Generate(60);
      delta.add.assign(fresh.documents().begin(), fresh.documents().end());
      manager.Apply(delta);
      std::this_thread::yield();
    }
    mutating.store(false);
  });
  for (auto& searcher : searchers) searcher.join();
  mutator.join();

  EXPECT_EQ(violations.load(), 0);

  // Quiesced: converge on the final epoch, then every re-issue must be a
  // deterministic (cached) answer at that epoch.
  defended.MigrateToCurrentEpoch();
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
  EXPECT_GE(defended.stats().epoch_migrations, 1u);
  for (const auto& query : log) {
    const auto first = defended.Search(query).DocIds();
    EXPECT_EQ(defended.Search(query).DocIds(), first)
        << "query '" << query.canonical() << "'";
  }
}

TEST(ConcurrencyStressTest, DeclineIsThreadSafeAcrossEpochs) {
  // AS-DECLINE runs on the same engine as the other defenses, so it is
  // internally synchronized and epoch-aware: searchers race a publisher,
  // and afterwards every answer still lies inside the final epoch's
  // Sel(q) and re-issues are deterministic.
  SyntheticCorpusConfig gen_config;
  gen_config.vocabulary_size = 2000;
  gen_config.num_topics = 12;
  gen_config.words_per_topic = 150;
  gen_config.seed = 31;
  SyntheticCorpusGenerator generator(gen_config);
  CorpusManager manager(generator.Generate(400));
  constexpr size_t kTopK = 5;
  PlainSearchEngine base(manager, kTopK);
  AsDeclineConfig config;
  config.cover_size = 3;
  AsDeclineEngine defended(base, config);

  AolLikeConfig log_config;
  log_config.log_size = 80;
  log_config.unique_queries = 25;
  const auto log = [&] {
    const auto snapshot = manager.Current();
    return AolLikeWorkload(snapshot->corpus(), log_config).log();
  }();

  std::atomic<int> violations{0};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 4; ++t) {
    searchers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const auto& query = log[(round * (t + 3) + t) % log.size()];
        if (defended.Search(query).docs.size() > kTopK) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::thread mutator([&] {
    for (int epoch = 0; epoch < 3; ++epoch) {
      CorpusDelta delta;
      const Corpus fresh = generator.Generate(40);
      delta.add.assign(fresh.documents().begin(), fresh.documents().end());
      const auto current = manager.Current();
      delta.remove.push_back(current->corpus().documents()[epoch].id());
      manager.Apply(delta);
      std::this_thread::yield();
    }
  });
  for (auto& searcher : searchers) searcher.join();
  mutator.join();
  EXPECT_EQ(violations.load(), 0);

  for (const auto& query : log) {
    const SearchResult first = defended.Search(query);
    std::vector<DocId> matches = base.MatchIds(query);
    for (DocId doc : first.DocIds()) {
      EXPECT_TRUE(std::binary_search(matches.begin(), matches.end(), doc))
          << "stale doc in answer of '" << query.canonical() << "'";
    }
    EXPECT_EQ(defended.Search(query).DocIds(), first.DocIds());
  }
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
}

}  // namespace
}  // namespace asup
