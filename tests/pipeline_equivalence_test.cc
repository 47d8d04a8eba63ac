// The processor-chain contract (engine/pipeline/result_processor.h,
// suppress/processors.h): decomposing the query path into composable
// stages changed NOTHING observable. Three angles pin that down:
//
//  1. Oracle equivalence — test-local *monolithic* reimplementations of
//     Algorithm 1 (AS-SIMPLE), Algorithm 2 (AS-ARBI) and the §5.2 decline
//     defense (AS-DECLINE), written straight from the paper against public
//     components only, must agree with the chain engines
//     document-for-document and score-bit-for-score-bit.
//  2. Cross-execution equivalence — one chain engine run serially, over
//     sharded bases (1/2/4 shards) and through BatchExecutor's
//     deterministic parallel mode must produce bitwise-identical answers,
//     stats, and serialized defense state.
//  3. The segment probe the recording stage emits must equal the
//     segment_index() of an equally-sized corpus — exactly at powers of γ,
//     where the replaced log-ratio arithmetic truncated one segment low.
//
// Plus the capability the chain makes cheap: a pluggable ranker
// (RescoreProcessor).

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/obs/event_log.h"
#include "asup/obs/metrics.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/suppress/segment.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus.h"
#include "asup/text/document.h"
#include "asup/text/vocabulary.h"
#include "asup/util/hash.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> Workload(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* text :
       {"sports", "game", "team", "league", "win", "coach", "season",
        "score", "sports game", "team league win", "game score",
        "sports team coach", "notaword", ""}) {
    queries.push_back(rig.Q(text));
  }
  const Vocabulary& vocab = rig.corpus->vocabulary();
  for (TermId t = 0; t < 60 && t < vocab.size(); t += 5) {
    queries.push_back(rig.Q(vocab.WordOf(t)));
    if (t + 1 < vocab.size()) {
      queries.push_back(rig.Q(vocab.WordOf(t) + " " + vocab.WordOf(t + 1)));
    }
  }
  return queries;
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

// ---------------------------------------------------------------------------
// Monolithic oracles: Algorithms 1 and 2 written as one straight-line
// function each, from the paper, over public components only. No pipeline,
// no engine internals — if the chain decomposition drifted by as much as
// one coin flip or one rounding step, these disagree.

class SimpleOracle {
 public:
  SimpleOracle(MatchingEngine& base, const AsSimpleConfig& config)
      : base_(&base),
        config_(config),
        segment_(std::max<size_t>(base.PinSnapshot()->NumDocuments(), 1),
                 config.gamma),
        coin_(config.secret_key),
        m_limit_(static_cast<size_t>(
            std::ceil(config.gamma * static_cast<double>(base.k())))) {}

  SearchResult Search(const KeywordQuery& query) {
    auto cached = cache_.find(query.canonical());
    if (cached != cache_.end()) return cached->second;
    SearchResult result;
    const RankedMatches ranked = base_->TopMatches(query, m_limit_);
    if (ranked.total_matches == 0) {
      result.status = QueryStatus::kUnderflow;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    // Lines 7-13: keyed per-edge coin against Θ_R.
    const double keep = segment_.edge_keep_probability();
    std::vector<ScoredDoc> survivors;
    for (const ScoredDoc& scored : ranked.docs) {
      if (!returned_.insert(scored.doc).second) {
        if (coin_.Accept(query.hash(), scored.doc, keep)) {
          survivors.push_back(scored);
        } else {
          ++docs_hidden_;
        }
      } else {
        survivors.push_back(scored);
      }
    }
    // Line 14: trim to min(|M(q)|/μ, k).
    const size_t lhs_target = static_cast<size_t>(
        std::llround(static_cast<double>(ranked.docs.size()) *
                     segment_.lhs_keep_fraction()));
    const size_t cap = std::min(lhs_target, base_->k());
    if (survivors.size() > cap) {
      docs_trimmed_ += survivors.size() - cap;
      survivors.resize(cap);
    }
    result.docs = std::move(survivors);
    if (result.docs.empty()) {
      result.status = QueryStatus::kUnderflow;
    } else if (static_cast<double>(ranked.total_matches) >
               segment_.mu() * static_cast<double>(base_->k())) {
      result.status = QueryStatus::kOverflow;
    } else {
      result.status = QueryStatus::kValid;
    }
    cache_.emplace(query.canonical(), result);
    return result;
  }

  const std::set<DocId>& activated() const { return returned_; }
  uint64_t docs_hidden() const { return docs_hidden_; }
  uint64_t docs_trimmed() const { return docs_trimmed_; }

 private:
  MatchingEngine* base_;
  AsSimpleConfig config_;
  IndistinguishableSegment segment_;
  DeterministicCoin coin_;
  size_t m_limit_;
  std::set<DocId> returned_;  // Θ_R by universe id
  std::map<std::string, SearchResult> cache_;
  uint64_t docs_hidden_ = 0;
  uint64_t docs_trimmed_ = 0;
};

class ArbiOracle {
 public:
  ArbiOracle(MatchingEngine& base, const AsArbiConfig& config)
      : base_(&base),
        config_(config),
        inner_(base, [&config] {
          AsSimpleConfig inner = config.simple;
          inner.cache_answers = false;
          return inner;
        }()),
        segment_(std::max<size_t>(base.PinSnapshot()->NumDocuments(), 1),
                 config.simple.gamma),
        finder_(history_, config.cover_size, config.cover_ratio) {}

  SearchResult Search(const KeywordQuery& query) {
    auto cached = cache_.find(query.canonical());
    if (cached != cache_.end()) return cached->second;
    SearchResult result;
    const size_t match_count = base_->MatchCount(query);
    if (match_count == 0) {
      result.status = QueryStatus::kUnderflow;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    const double max_coverable =
        static_cast<double>(config_.cover_size * base_->k());
    if (config_.cover_ratio * static_cast<double>(match_count) <=
        max_coverable) {
      const std::vector<DocId> match_ids = base_->MatchIds(query);
      const CoverResult cover = finder_.Find(match_ids);
      if (cover.found) {
        ++virtual_answers_;
        // Virtual query processing: q ∩ (Res(q1) ∪ ... ∪ Res(qu)).
        std::vector<DocId> pool;
        for (uint32_t qi : cover.query_indices) {
          const auto& answer = history_.QueryAt(qi).answer;
          pool.insert(pool.end(), answer.begin(), answer.end());
        }
        std::sort(pool.begin(), pool.end());
        pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
        std::vector<DocId> virtual_ids;
        std::set_intersection(match_ids.begin(), match_ids.end(),
                              pool.begin(), pool.end(),
                              std::back_inserter(virtual_ids));
        if (virtual_ids.empty()) {
          result.status = QueryStatus::kUnderflow;
        } else {
          std::vector<ScoredDoc> ranked = base_->RankDocs(query, virtual_ids);
          if (ranked.size() > base_->k()) ranked.resize(base_->k());
          result.docs = std::move(ranked);
          result.status = static_cast<double>(match_ids.size()) >
                                  segment_.mu() *
                                      static_cast<double>(base_->k())
                              ? QueryStatus::kOverflow
                              : QueryStatus::kValid;
        }
        cache_.emplace(query.canonical(), result);
        return result;
      }
    }
    ++simple_answers_;
    result = inner_.Search(query);
    if (!result.docs.empty()) history_.Record(query, result.DocIds());
    cache_.emplace(query.canonical(), result);
    return result;
  }

  uint64_t virtual_answers() const { return virtual_answers_; }
  uint64_t simple_answers() const { return simple_answers_; }
  const HistoryStore& history() const { return history_; }

 private:
  MatchingEngine* base_;
  AsArbiConfig config_;
  SimpleOracle inner_;
  IndistinguishableSegment segment_;
  HistoryStore history_;
  CoverFinder finder_;
  std::map<std::string, SearchResult> cache_;
  uint64_t virtual_answers_ = 0;
  uint64_t simple_answers_ = 0;
};

// Section 5.2's decline defense: Algorithm 2's cover trigger, but a covered
// query is refused (empty answer, kDeclined) instead of answered virtually.
// Declined queries disclose nothing, so only fall-through answers enter the
// history.
class DeclineOracle {
 public:
  DeclineOracle(MatchingEngine& base, const AsDeclineConfig& config)
      : base_(&base),
        config_(config),
        inner_(base, config.simple),
        finder_(history_, config.cover_size, config.cover_ratio) {}

  SearchResult Search(const KeywordQuery& query) {
    auto cached = cache_.find(query.canonical());
    if (cached != cache_.end()) return cached->second;
    SearchResult result;
    const size_t match_count = base_->MatchCount(query);
    if (match_count == 0) {
      result.status = QueryStatus::kUnderflow;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    const double max_coverable =
        static_cast<double>(config_.cover_size * base_->k());
    if (config_.cover_ratio * static_cast<double>(match_count) <=
            max_coverable &&
        finder_.Find(base_->MatchIds(query)).found) {
      ++declined_;
      result.status = QueryStatus::kDeclined;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    ++simple_answers_;
    result = inner_.Search(query);
    if (!result.docs.empty()) history_.Record(query, result.DocIds());
    cache_.emplace(query.canonical(), result);
    return result;
  }

  uint64_t declined() const { return declined_; }
  uint64_t simple_answers() const { return simple_answers_; }
  const HistoryStore& history() const { return history_; }
  const SimpleOracle& inner() const { return inner_; }

 private:
  MatchingEngine* base_;
  AsDeclineConfig config_;
  SimpleOracle inner_;
  HistoryStore history_;
  CoverFinder finder_;
  std::map<std::string, SearchResult> cache_;
  uint64_t declined_ = 0;
  uint64_t simple_answers_ = 0;
};

/// Workload(rig) plus a correlated "sports <w>" family: on a topical rig
/// the family's later members are covered by the earlier answers.
std::vector<KeywordQuery> CorrelatedWorkload(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* w : {"game", "team", "score", "league", "coach", "season",
                        "player", "match", "win"}) {
    queries.push_back(rig.Q(std::string("sports ") + w));
  }
  for (KeywordQuery& q : Workload(rig)) queries.push_back(std::move(q));
  return queries;
}

TEST(PipelineOracleTest, AsSimpleChainMatchesMonolithicAlgorithm1) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  config.gamma = 2.0;
  AsSimpleEngine chain(*rig.engine, config);
  SimpleOracle oracle(*rig.engine, config);

  const auto queries = Workload(rig);
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  // Re-issues replay from both caches identically.
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "reissue q=\"" + q.canonical() + "\"");
  }
  // Θ_R and the hide/trim tallies evolved identically.
  EXPECT_EQ(chain.NumActivatedDocs(), oracle.activated().size());
  for (DocId doc : oracle.activated()) {
    EXPECT_TRUE(chain.IsActivated(doc)) << "doc " << doc;
  }
  EXPECT_EQ(chain.stats().docs_hidden, oracle.docs_hidden());
  EXPECT_EQ(chain.stats().docs_trimmed, oracle.docs_trimmed());
}

TEST(PipelineOracleTest, AsSimpleChainMatchesOracleAtGammaFive) {
  Rig rig = MakeRig(450, 5);
  AsSimpleConfig config;
  config.gamma = 5.0;
  AsSimpleEngine chain(*rig.engine, config);
  SimpleOracle oracle(*rig.engine, config);
  for (const KeywordQuery& q : Workload(rig)) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  EXPECT_EQ(chain.stats().docs_hidden, oracle.docs_hidden());
  EXPECT_EQ(chain.stats().docs_trimmed, oracle.docs_trimmed());
}

TEST(PipelineOracleTest, AsArbiChainMatchesMonolithicAlgorithm2) {
  Rig rig = MakeTopicalRig(600, 5);
  AsArbiConfig config;
  config.simple.gamma = 2.0;
  AsArbiEngine chain(*rig.engine, config);
  ArbiOracle oracle(*rig.engine, config);

  const auto queries = Workload(rig);
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  // The chain took the same virtual/fall-through decisions and recorded
  // the same history as the straight-line algorithm.
  EXPECT_GT(oracle.virtual_answers() + oracle.simple_answers(), 0u);
  EXPECT_EQ(chain.stats().virtual_answers, oracle.virtual_answers());
  EXPECT_EQ(chain.stats().simple_answers, oracle.simple_answers());
  ASSERT_EQ(chain.history().NumQueries(), oracle.history().NumQueries());
  for (size_t i = 0; i < oracle.history().NumQueries(); ++i) {
    EXPECT_EQ(chain.history().QueryAt(i).answer,
              oracle.history().QueryAt(i).answer)
        << "history entry " << i;
  }
}

TEST(PipelineOracleTest, AsDeclineChainMatchesMonolithicSection52) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineConfig config;
  config.simple.gamma = 2.0;
  AsDeclineEngine chain(*rig.engine, config);
  DeclineOracle oracle(*rig.engine, config);

  const auto queries = CorrelatedWorkload(rig);
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "reissue q=\"" + q.canonical() + "\"");
  }
  // Both refused the same queries and disclosed the same answers.
  EXPECT_GT(oracle.declined(), 0u);
  EXPECT_GT(oracle.simple_answers(), 0u);
  EXPECT_EQ(chain.stats().declined, oracle.declined());
  EXPECT_EQ(chain.stats().simple_answers, oracle.simple_answers());
  EXPECT_EQ(chain.simple_engine().stats().docs_hidden,
            oracle.inner().docs_hidden());
  EXPECT_EQ(chain.simple_engine().stats().docs_trimmed,
            oracle.inner().docs_trimmed());
  ASSERT_EQ(chain.history().NumQueries(), oracle.history().NumQueries());
  for (size_t i = 0; i < oracle.history().NumQueries(); ++i) {
    EXPECT_EQ(chain.history().QueryAt(i).answer,
              oracle.history().QueryAt(i).answer)
        << "history entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Cross-execution: serial vs sharded (1/2/4) vs deterministic-parallel.

TEST(PipelineCrossExecutionTest, AsSimpleIsBitwiseIdenticalAcrossExecutions) {
  Rig rig = MakeRig(520, 5);
  const auto queries = Workload(rig);
  AsSimpleConfig config;
  config.gamma = 2.0;

  // Reference: serial over the single index.
  AsSimpleEngine serial(*rig.engine, config);
  std::vector<SearchResult> expected;
  for (const KeywordQuery& q : queries) expected.push_back(serial.Search(q));
  std::ostringstream expected_state;
  ASSERT_TRUE(SaveDefenseState(serial, expected_state));

  // Deterministic parallel over the same base.
  {
    ThreadPool pool(4);
    AsSimpleEngine parallel(*rig.engine, config);
    const std::vector<SearchResult> results =
        BatchExecutor(pool).ExecuteDeterministic(parallel, queries);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectBitwiseEqual(results[i], expected[i],
                         "deterministic-parallel #" + std::to_string(i));
    }
    EXPECT_EQ(parallel.stats().docs_hidden, serial.stats().docs_hidden);
    EXPECT_EQ(parallel.stats().docs_trimmed, serial.stats().docs_trimmed);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(parallel, state));
    EXPECT_EQ(state.str(), expected_state.str());
  }

  // Sharded bases, every shard count.
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService base(index, rig.engine->k(), nullptr);
    AsSimpleEngine over_sharded(base, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEqual(over_sharded.Search(queries[i]), expected[i],
                         "shards=" + std::to_string(shards) + " #" +
                             std::to_string(i));
    }
    EXPECT_EQ(over_sharded.stats().docs_hidden, serial.stats().docs_hidden);
    EXPECT_EQ(over_sharded.stats().docs_trimmed, serial.stats().docs_trimmed);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(over_sharded, state));
    EXPECT_EQ(state.str(), expected_state.str()) << "shards=" << shards;
  }
}

TEST(PipelineCrossExecutionTest, AsArbiIsBitwiseIdenticalAcrossExecutions) {
  Rig rig = MakeTopicalRig(600, 5);
  const auto queries = Workload(rig);
  AsArbiConfig config;
  config.simple.gamma = 2.0;

  AsArbiEngine serial(*rig.engine, config);
  std::vector<SearchResult> expected;
  for (const KeywordQuery& q : queries) expected.push_back(serial.Search(q));
  std::ostringstream expected_state;
  ASSERT_TRUE(SaveDefenseState(serial, expected_state));

  {
    ThreadPool pool(4);
    AsArbiEngine parallel(*rig.engine, config);
    const std::vector<SearchResult> results =
        BatchExecutor(pool).ExecuteDeterministic(parallel, queries);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectBitwiseEqual(results[i], expected[i],
                         "deterministic-parallel #" + std::to_string(i));
    }
    EXPECT_EQ(parallel.stats().virtual_answers,
              serial.stats().virtual_answers);
    EXPECT_EQ(parallel.stats().simple_answers, serial.stats().simple_answers);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(parallel, state));
    EXPECT_EQ(state.str(), expected_state.str());
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService base(index, rig.engine->k(), nullptr);
    AsArbiEngine over_sharded(base, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEqual(over_sharded.Search(queries[i]), expected[i],
                         "shards=" + std::to_string(shards) + " #" +
                             std::to_string(i));
    }
    EXPECT_EQ(over_sharded.stats().virtual_answers,
              serial.stats().virtual_answers);
    EXPECT_EQ(over_sharded.stats().simple_answers,
              serial.stats().simple_answers);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(over_sharded, state));
    EXPECT_EQ(state.str(), expected_state.str()) << "shards=" << shards;
  }
}

TEST(PipelineCrossExecutionTest, AsDeclineIsBitwiseIdenticalAcrossExecutions) {
  Rig rig = MakeTopicalRig(1050, 50);
  const auto queries = CorrelatedWorkload(rig);
  AsDeclineConfig config;
  config.simple.gamma = 2.0;

  AsDeclineEngine serial(*rig.engine, config);
  std::vector<SearchResult> expected;
  for (const KeywordQuery& q : queries) expected.push_back(serial.Search(q));
  ASSERT_GT(serial.stats().declined, 0u);
  std::ostringstream expected_state;
  ASSERT_TRUE(SaveDefenseState(serial, expected_state));

  {
    ThreadPool pool(4);
    AsDeclineEngine parallel(*rig.engine, config);
    const std::vector<SearchResult> results =
        BatchExecutor(pool).ExecuteDeterministic(parallel, queries);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectBitwiseEqual(results[i], expected[i],
                         "deterministic-parallel #" + std::to_string(i));
    }
    EXPECT_EQ(parallel.stats().declined, serial.stats().declined);
    EXPECT_EQ(parallel.stats().simple_answers, serial.stats().simple_answers);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(parallel, state));
    EXPECT_EQ(state.str(), expected_state.str());
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService base(index, rig.engine->k(), nullptr);
    AsDeclineEngine over_sharded(base, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEqual(over_sharded.Search(queries[i]), expected[i],
                         "shards=" + std::to_string(shards) + " #" +
                             std::to_string(i));
    }
    EXPECT_EQ(over_sharded.stats().declined, serial.stats().declined);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(over_sharded, state));
    EXPECT_EQ(state.str(), expected_state.str()) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// The segment probe at γ-power boundaries.

#if ASUP_METRICS_ENABLED

/// A corpus of `total` documents in which the word "probe" appears in
/// every document and "nearly" in all but one — exact match counts for
/// boundary tests.
struct ExactCorpusRig {
  std::shared_ptr<Vocabulary> vocab;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<PlainSearchEngine> engine;
};

ExactCorpusRig MakeExactRig(size_t total, size_t k) {
  ExactCorpusRig rig;
  rig.vocab = std::make_shared<Vocabulary>();
  const TermId probe = rig.vocab->AddWord("probe");
  const TermId nearly = rig.vocab->AddWord("nearly");
  std::vector<Document> docs;
  docs.reserve(total);
  for (DocId id = 0; id < total; ++id) {
    std::vector<TermId> tokens{probe};
    if (id != 0) tokens.push_back(nearly);
    tokens.push_back(rig.vocab->AddWord("filler" + std::to_string(id)));
    docs.emplace_back(id, tokens);
  }
  rig.corpus = std::make_unique<Corpus>(rig.vocab, std::move(docs));
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

std::vector<int64_t> ProbesIn(const obs::EventLog& log) {
  std::vector<int64_t> probes;
  for (const obs::Event& event : log.Snapshot()) {
    if (event.kind == obs::EventKind::kSegmentProbe) {
      probes.push_back(event.a);
    }
  }
  return probes;
}

TEST(SegmentProbeEventTest, ProbeEqualsSegmentIndexAtExactGammaPowers) {
  // γ = 10, |Sel(q)| = 1000 = 10^3: the probe must report segment 3 —
  // trunc(log(1000)/log(10)) reported 2 and made every boundary-straddling
  // query pair look like a segment crossing (the fig21 feature this fed).
  struct Case {
    double gamma;
    size_t count;  // exact power of gamma
    int64_t expected;
  };
  for (const Case c : {Case{2.0, 1024, 10}, Case{5.0, 625, 4},
                       Case{10.0, 1000, 3}}) {
    ExactCorpusRig rig = MakeExactRig(c.count, 5);
    AsSimpleConfig config;
    config.gamma = c.gamma;
    AsSimpleEngine defended(*rig.engine, config);

    obs::EventLog log(4096);
    obs::InstallEventLog(&log);
    defended.Search(KeywordQuery::Parse(*rig.vocab, "probe"));   // γ^i docs
    defended.Search(KeywordQuery::Parse(*rig.vocab, "nearly"));  // γ^i − 1
    obs::InstallEventLog(nullptr);

    const std::vector<int64_t> probes = ProbesIn(log);
    ASSERT_EQ(probes.size(), 2u) << "gamma=" << c.gamma;
    EXPECT_EQ(probes[0], c.expected) << "gamma=" << c.gamma;
    EXPECT_EQ(probes[1], c.expected - 1) << "gamma=" << c.gamma;
    // The probe is literally the segment arithmetic of an equally-sized
    // corpus — one source of truth for "which segment".
    EXPECT_EQ(probes[0],
              IndistinguishableSegment(c.count, c.gamma).segment_index());
    EXPECT_EQ(probes[1],
              IndistinguishableSegment(c.count - 1, c.gamma).segment_index());
  }
}

#endif  // ASUP_METRICS_ENABLED

// ---------------------------------------------------------------------------
// New chain capabilities: pluggable ranker + aggregation stage.

TEST(PipelineStagesTest, RescoreProcessorRanksWithAlternateScorer) {
  Rig rig = MakeRig(400, 10);
  ProcessorChain chain;
  chain.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<InterfaceStatusProcessor>())
      .Add(std::make_unique<RescoreProcessor>(std::make_unique<TfIdfScorer>()));

  const KeywordQuery q = rig.Q("sports game");
  const SnapshotHandle snapshot = rig.engine->PinSnapshot();

  QueryContext context;
  context.query = &q;
  context.base = rig.engine.get();
  context.snapshot = snapshot.get();
  context.k = rig.engine->k();
  context.match_limit = rig.engine->k();
  chain.Run(context);
  ASSERT_FALSE(context.result.docs.empty());

  // Same documents as the default BM25 interface answer...
  const SearchResult bm25 = rig.engine->Search(q);
  std::set<DocId> chain_docs, bm25_docs;
  for (const ScoredDoc& d : context.result.docs) chain_docs.insert(d.doc);
  for (const ScoredDoc& d : bm25.docs) bm25_docs.insert(d.doc);
  EXPECT_EQ(chain_docs, bm25_docs);

  // ...re-ranked into the engine's strict total order under TF-IDF.
  for (size_t i = 1; i < context.result.docs.size(); ++i) {
    EXPECT_TRUE(
        RankBefore(context.result.docs[i - 1], context.result.docs[i]))
        << "rank " << i;
  }

  // Deterministic: a second run reproduces every score bit.
  QueryContext again;
  again.query = &q;
  again.base = rig.engine.get();
  again.snapshot = snapshot.get();
  again.k = rig.engine->k();
  again.match_limit = rig.engine->k();
  chain.Run(again);
  ASSERT_EQ(again.result.docs.size(), context.result.docs.size());
  for (size_t i = 0; i < again.result.docs.size(); ++i) {
    EXPECT_EQ(again.result.docs[i].doc, context.result.docs[i].doc);
    EXPECT_EQ(again.result.docs[i].score, context.result.docs[i].score);
  }
}

TEST(PipelineStagesTest, RescoreProcessorRescoresOverStaticShardedBase) {
  // A static sharded deployment pins snapshots without a single-index
  // view. The rescore stage must apply its scorer there too — and, since
  // it reads the corpus and the global statistics, answer bitwise like the
  // same chain over the single index.
  Rig rig = MakeRig(400, 10);
  ShardedInvertedIndex index(*rig.corpus, 4);
  ShardedSearchService sharded(index, rig.engine->k());
  ProcessorChain chain;
  chain.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<InterfaceStatusProcessor>())
      .Add(std::make_unique<RescoreProcessor>(std::make_unique<TfIdfScorer>()));
  const auto run = [&](MatchingEngine& base, const KeywordQuery& q) {
    const SnapshotHandle snapshot = base.PinSnapshot();
    QueryContext context;
    context.query = &q;
    context.base = &base;
    context.snapshot = snapshot.get();
    context.k = base.k();
    context.match_limit = base.k();
    chain.Run(context);
    return context.result;
  };
  for (const KeywordQuery& q : Workload(rig)) {
    ExpectBitwiseEqual(run(sharded, q), run(*rig.engine, q),
                       "q=\"" + q.canonical() + "\"");
  }
}

}  // namespace
}  // namespace asup
