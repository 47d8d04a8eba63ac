// Micro-benchmarks (google-benchmark) of the substrate: index build,
// query processing with and without the suppression layers, posting-list
// decoding, the AS-ARBI trigger machinery, and the parallel batch
// executor's throughput scaling over 1..8 workers.

#include <span>

#include <benchmark/benchmark.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/engine/query_node.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/block_codec.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/obs/trace.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/thread_pool.h"
#include "asup/workload/aol_like.h"

namespace asup {
namespace {

struct MicroEnv {
  MicroEnv() {
    SyntheticCorpusConfig config;
    config.vocabulary_size = 30000;
    config.seed = 7;
    SyntheticCorpusGenerator generator(config);
    corpus = std::make_unique<Corpus>(generator.Generate(20000));
    index = std::make_unique<InvertedIndex>(*corpus);
    engine = std::make_unique<PlainSearchEngine>(*index, 5);
    AolLikeConfig log_config;
    log_config.log_size = 4000;
    log_config.unique_queries = 2000;
    workload = std::make_unique<AolLikeWorkload>(*corpus, log_config);
  }
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<PlainSearchEngine> engine;
  std::unique_ptr<AolLikeWorkload> workload;
};

MicroEnv& Env() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

void BM_IndexBuild(benchmark::State& state) {
  const Corpus& corpus = *Env().corpus;
  for (auto _ : state) {
    InvertedIndex index(corpus);
    benchmark::DoNotOptimize(index.stats().num_postings);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_PlainSearch(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.engine->Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlainSearch);

// The composable chain run end to end with the optional engine-layer
// stages attached (pluggable TF-IDF ranker + facet histogram) — the cost
// of stage dispatch plus rescoring, against BM_PlainSearch's monolithic
// interface call as the baseline.
void BM_PipelineRescoreFacet(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto& log = env.workload->log();
  ProcessorChain chain;
  chain.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<InterfaceStatusProcessor>())
      .Add(std::make_unique<RescoreProcessor>(std::make_unique<TfIdfScorer>()))
      .Add(std::make_unique<FacetCountProcessor>(16));
  const SnapshotHandle snapshot = env.engine->PinSnapshot();
  size_t i = 0;
  for (auto _ : state) {
    QueryContext context;
    context.query = &log[i];
    context.base = env.engine.get();
    context.snapshot = snapshot.get();
    context.k = env.engine->k();
    context.match_limit = env.engine->k();
    chain.Run(context);
    benchmark::DoNotOptimize(context.result.docs.size());
    benchmark::DoNotOptimize(context.facet_buckets.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineRescoreFacet);

void BM_AsSimpleSearch(benchmark::State& state) {
  MicroEnv& env = Env();
  AsSimpleConfig config;
  config.cache_answers = false;  // measure processing, not cache hits
  AsSimpleEngine defended(*env.engine, config);
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(defended.Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsSimpleSearch);

void BM_AsArbiSearch(benchmark::State& state) {
  MicroEnv& env = Env();
  AsArbiConfig config;
  config.simple.cache_answers = false;
  AsArbiEngine defended(*env.engine, config);
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(defended.Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsArbiSearch);

void BM_AsArbiSearchCached(benchmark::State& state) {
  MicroEnv& env = Env();
  AsArbiConfig config;
  AsArbiEngine defended(*env.engine, config);
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(defended.Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsArbiSearchCached);

// Batch throughput over the undefended engine at state.range(0) workers.
// The index is immutable and the engine stateless, so this is the pure
// fan-out scaling of the thread pool + executor; items/s is the headline
// queries-per-second figure. Compare Arg(8) to Arg(1) on a quiesced
// multicore machine for the parallel speedup (a 1-core container shows
// ~1x by construction).
void BM_ParallelPlainBatch(benchmark::State& state) {
  MicroEnv& env = Env();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  BatchExecutor executor(pool);
  const auto& log = env.workload->log();
  const std::span<const KeywordQuery> batch(log.data(), 1000);
  for (auto _ : state) {
    auto results = executor.ExecuteConcurrent(*env.engine, batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_ParallelPlainBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Free-running concurrent batch over a defended (AS-ARBI) engine. The
// engine synchronizes internally; each iteration uses a fresh engine so
// the answer cache never short-circuits the work being measured.
void BM_ParallelArbiBatch(benchmark::State& state) {
  MicroEnv& env = Env();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  BatchExecutor executor(pool);
  const auto& log = env.workload->log();
  const std::span<const KeywordQuery> batch(log.data(), 1000);
  for (auto _ : state) {
    state.PauseTiming();
    AsArbiEngine defended(*env.engine, AsArbiConfig{});
    state.ResumeTiming();
    auto results = executor.ExecuteConcurrent(defended, batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_ParallelArbiBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Deterministic mode on the same defended engine: parallel prefetch +
// serial in-order commit. The gap to BM_ParallelArbiBatch is the price of
// bitwise-serial-equivalent state evolution.
void BM_DeterministicArbiBatch(benchmark::State& state) {
  MicroEnv& env = Env();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  BatchExecutor executor(pool);
  const auto& log = env.workload->log();
  const std::span<const KeywordQuery> batch(log.data(), 1000);
  for (auto _ : state) {
    state.PauseTiming();
    AsArbiEngine defended(*env.engine, AsArbiConfig{});
    state.ResumeTiming();
    auto results = executor.ExecuteDeterministic(defended, batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_DeterministicArbiBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Scatter-gather matching at state.range(0) shards, single-threaded
// fan-out: the pure cost of partitioned matching + exact merge relative
// to BM_PlainSearch (answers are bitwise identical by construction).
void BM_ShardedSearchSerial(benchmark::State& state) {
  MicroEnv& env = Env();
  ShardedInvertedIndex index(*env.corpus,
                             static_cast<size_t>(state.range(0)));
  ShardedSearchService engine(index, env.engine->k());
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedSearchSerial)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The same scatter phase fanned out on a pool of range(0) workers, one
// worker per shard. Compare to BM_ShardedSearchSerial at the same shard
// count for the match-throughput scaling of the scatter-gather engine.
void BM_ShardedSearchPooled(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto shards = static_cast<size_t>(state.range(0));
  ShardedInvertedIndex index(*env.corpus, shards);
  ThreadPool pool(shards);
  ShardedSearchService engine(index, env.engine->k(), &pool);
  const auto& log = env.workload->log();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(log[i]).docs.size());
    i = (i + 1) % log.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedSearchPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Sharded index construction: N per-shard indexes over disjoint ranges.
void BM_ShardedIndexBuild(benchmark::State& state) {
  const Corpus& corpus = *Env().corpus;
  const auto shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ShardedInvertedIndex index(corpus, shards);
    benchmark::DoNotOptimize(index.stats().num_postings);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_ShardedIndexBuild)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// Block-format decode throughput: full scan of a 10k-posting list through
// the group-varint block codec (the format every engine reads now).
void BM_PostingDecode(benchmark::State& state) {
  PostingList::Builder builder;
  for (uint32_t d = 0; d < 10000; ++d) builder.Add(d * 3, 1 + d % 7);
  const PostingList list = std::move(builder).Build();
  for (auto _ : state) {
    size_t total = 0;
    for (auto it = list.begin(); it.Valid(); it.Next()) {
      total += it.Get().freq;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PostingDecode);

// The pre-block posting format, reconstructed locally: one LEB128
// (delta, freq) varbyte pair per posting, decoded scalar one value at a
// time. The BM_PostingDecode / BM_LegacyVarByteDecode ratio is the
// decode-throughput win of the group-varint block format (fig15f).
void BM_LegacyVarByteDecode(benchmark::State& state) {
  std::vector<uint8_t> bytes;
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t d = 0; d < 10000; ++d) {
    const uint32_t doc = d * 3;
    AppendVarByte(first ? doc : doc - prev, bytes);
    AppendVarByte(1 + d % 7, bytes);
    prev = doc;
    first = false;
  }
  for (auto _ : state) {
    size_t total = 0;
    size_t offset = 0;
    uint32_t doc = 0;
    for (uint32_t d = 0; d < 10000; ++d) {
      uint32_t delta = 0;
      uint32_t freq = 0;
      if (!TryReadVarByte(bytes, offset, delta) ||
          !TryReadVarByte(bytes, offset, freq)) {
        break;
      }
      doc += delta;
      total += freq;
    }
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(doc);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_LegacyVarByteDecode);

// Vocabulary lookup through the heterogeneous (string_view) path: query
// parsing resolves every token this way, so the per-lookup cost — and in
// particular the absence of a temporary std::string allocation per probe —
// feeds straight into query latency. The miss case exercises the same path
// with tokens guaranteed absent.
void BM_VocabularyLookup(benchmark::State& state) {
  const Vocabulary& vocab = Env().corpus->vocabulary();
  std::vector<std::string> words;
  words.reserve(vocab.size());
  for (TermId id = 0; id < vocab.size(); ++id) {
    words.push_back(vocab.WordOf(id));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vocab.Lookup(std::string_view(words[i])).has_value());
    i = (i + 1) % words.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VocabularyLookup);

void BM_VocabularyLookupMiss(benchmark::State& state) {
  const Vocabulary& vocab = Env().corpus->vocabulary();
  std::vector<std::string> words;
  words.reserve(1024);
  for (size_t w = 0; w < 1024; ++w) {
    words.push_back("zz-absent-" + std::to_string(w));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vocab.Lookup(std::string_view(words[i])).has_value());
    i = (i + 1) % words.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VocabularyLookupMiss);

// Multi-term conjunctive match latency through the iterator algebra
// (rarest-first leapfrog And over block-compressed postings) — the match
// path every engine now runs.
void BM_ConjunctiveMatch(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto& vocab = env.corpus->vocabulary();
  const auto query = KeywordQuery::Parse(vocab, "sports game team");
  const QueryNode node = QueryNode::FromKeywords(query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteMatch(*env.index, node, query.terms()).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConjunctiveMatch);

// Terms for the disjunction sweeps, by document frequency rank.
// rank_from_top=true returns the state.range(0) highest-df terms (dense,
// heavily overlapping lists — every step has many children at the minimum,
// so the flat scan's regime); false returns mid-rank rare terms (sparse,
// mostly disjoint lists — usually one child per minimum, the heap's
// regime).
std::vector<TermId> TermsByDfRank(const InvertedIndex& index, size_t count,
                                  bool rank_from_top) {
  std::vector<std::pair<size_t, TermId>> by_df;
  const size_t vocab = index.corpus().vocabulary().size();
  for (TermId term = 0; term < vocab; ++term) {
    const size_t df = index.DocumentFrequency(term);
    if (df > 0) by_df.emplace_back(df, term);
  }
  std::sort(by_df.rbegin(), by_df.rend());
  std::vector<TermId> terms;
  const size_t start = rank_from_top ? 0 : by_df.size() / 2;
  for (size_t i = start; i < by_df.size() && terms.size() < count; ++i) {
    terms.push_back(by_df[i].second);
  }
  return terms;
}

// Disjunction count at state.range(0) children under a fixed Or merge
// strategy. The flat/heap crossing point across the sparse sweep is what
// sets kOrHeapCrossoverChildren (engine/doc_iterator.h, EXPERIMENTS.md);
// the adaptive rows must track the better of the two in each regime it
// can distinguish (child count is its only input).
void OrCountSweep(benchmark::State& state, OrStrategy strategy, bool dense) {
  MicroEnv& env = Env();
  const auto fanout = static_cast<size_t>(state.range(0));
  std::vector<QueryNode> children;
  for (TermId term : TermsByDfRank(*env.index, fanout, dense)) {
    children.push_back(QueryNode::Term(term));
  }
  const QueryNode node = QueryNode::Or(std::move(children));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteCount(*env.index, node, strategy));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_OrCountFlat(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kFlat, /*dense=*/true);
}
BENCHMARK(BM_OrCountFlat)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

void BM_OrCountHeap(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kHeap, /*dense=*/true);
}
BENCHMARK(BM_OrCountHeap)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

void BM_OrCountAdaptive(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kAdaptive, /*dense=*/true);
}
BENCHMARK(BM_OrCountAdaptive)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

void BM_OrCountSparseFlat(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kFlat, /*dense=*/false);
}
BENCHMARK(BM_OrCountSparseFlat)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

void BM_OrCountSparseHeap(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kHeap, /*dense=*/false);
}
BENCHMARK(BM_OrCountSparseHeap)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

void BM_OrCountSparseAdaptive(benchmark::State& state) {
  OrCountSweep(state, OrStrategy::kAdaptive, /*dense=*/false);
}
BENCHMARK(BM_OrCountSparseAdaptive)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

#if ASUP_METRICS_ENABLED

// Cost of the obs primitives themselves. The engine benchmarks above run
// with the instrumentation compiled in either way; these isolate the
// per-call price the <2% overhead budget (DESIGN.md §11) is made of.

void BM_MetricCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    ASUP_METRIC_COUNT("asup_bench_counter_total", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricCounterAdd);

void BM_MetricHistogramObserve(benchmark::State& state) {
  int64_t v = 1;
  for (auto _ : state) {
    ASUP_METRIC_OBSERVE_NANOS("asup_bench_latency_ns", v);
    v = (v * 17) & 0xFFFFF;  // walk the bucket ladder
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricHistogramObserve);

// A stage scope with no active trace: one steady_clock read at open, one
// at close, plus the stage-histogram observe. This is the hot-path cost
// every ASUP_TRACE_STAGE site pays per query.
void BM_TraceStageScopeUntraced(benchmark::State& state) {
  for (auto _ : state) {
    ASUP_TRACE_STAGE(obs::Stage::kMatch);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceStageScopeUntraced);

// One fully traced query: open a trace, record one stage span, publish to
// the ring sink. This is the extra per-query price of a --trace-out run.
void BM_TraceStageScopeTraced(benchmark::State& state) {
  obs::TraceRingSink sink(16);
  obs::InstallTraceSink(&sink);
  for (auto _ : state) {
    obs::ScopedQueryTrace traced("bench");
    ASUP_TRACE_STAGE(obs::Stage::kMatch);
    benchmark::ClobberMemory();
  }
  obs::InstallTraceSink(nullptr);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceStageScopeTraced);

#endif  // ASUP_METRICS_ENABLED

}  // namespace
}  // namespace asup

BENCHMARK_MAIN();
