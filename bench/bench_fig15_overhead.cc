// Figure 15: AS-ARBI's query-processing overhead — the ratio of the
// defended engine's cumulative response time to the undefended engine's,
// as the number of processed queries grows. The paper reports a small,
// flat ratio (the trigger evaluation is skipped for broad queries and the
// per-document signatures make it cheap otherwise).
//
// Also prints an ablation: the same ratio with the deterministic answer
// cache disabled, and a parallel-mode table: batch throughput of the
// plain and defended engines at 1/2/4/8 workers (free-running concurrent
// mode and the deterministic prefetch+serial-commit mode).
//
// With metrics compiled in, the defended runs execute under a query trace
// and the bench additionally prints fig15c — per-stage latency percentiles
// (match/hide/trim/cover/...) from RunReport — and accepts
//   --trace-out=FILE    dump the most recent query traces as JSONL
//   --report-out=FILE   dump the RunReport JSON summary (BENCH sidecar)

#include <fstream>
#include <functional>
#include <span>
#include <string>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/query_node.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/block_codec.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/sharded_index.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/obs/run_report.h"
#include "asup/obs/trace.h"
#include "asup/util/stopwatch.h"
#include "asup/util/thread_pool.h"
#include "bench_common.h"

namespace {

using namespace asup;
using namespace asup::bench;

std::vector<double> RatioSeries(const Corpus& corpus,
                                const std::vector<KeywordQuery>& log,
                                size_t k, bool cache,
                                const std::vector<uint64_t>& checkpoints) {
  EngineStack plain_stack = EngineStack::Plain(corpus, k);
  AsArbiConfig config;
  config.simple.cache_answers = cache;
  EngineStack defended_stack = EngineStack::WithArbi(corpus, k, config);

  TimingService plain_timer(plain_stack.service());
  TimingService defended_timer(defended_stack.service());

  std::vector<double> ratios;
  size_t next = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    plain_timer.Search(log[i]);
    {
      // Trace the defended pipeline only; inert when no sink is installed.
      ASUP_METRICS_ONLY(const obs::ScopedQueryTrace traced(
          log[i].canonical());)
      defended_timer.Search(log[i]);
    }
    if (next < checkpoints.size() && i + 1 == checkpoints[next]) {
      ratios.push_back(defended_timer.MeanNanos() /
                       std::max(plain_timer.MeanNanos(), 1.0));
      ++next;
    }
  }
  return ratios;
}

double MeasureQps(const std::function<void()>& run, size_t queries) {
  Stopwatch watch;
  run();
  const double seconds =
      static_cast<double>(watch.ElapsedNanos()) / 1e9;
  return static_cast<double>(queries) / std::max(seconds, 1e-9);
}

/// Batch throughput (queries/s) of the plain engine (concurrent mode) and
/// of AS-ARBI (concurrent and deterministic modes) at several worker
/// counts, plus the speedup of each series over its own 1-worker row.
/// Fresh engines per row: the answer cache must not carry work across
/// measurements.
void PrintParallelMode(const Corpus& corpus,
                       const std::vector<KeywordQuery>& log, size_t k) {
  const std::span<const KeywordQuery> batch(
      log.data(), std::min<size_t>(log.size(), 2000));

  CsvTable table({"workers", "plain_qps", "arbi_qps", "arbi_det_qps",
                  "plain_speedup", "arbi_speedup", "arbi_det_speedup"});
  double base_plain = 0.0, base_arbi = 0.0, base_det = 0.0;
  for (const size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    BatchExecutor executor(pool);

    EngineStack plain_stack = EngineStack::Plain(corpus, k);
    const double plain_qps = MeasureQps(
        [&] { executor.ExecuteConcurrent(plain_stack.service(), batch); },
        batch.size());

    EngineStack arbi_stack = EngineStack::WithArbi(corpus, k, AsArbiConfig{});
    const double arbi_qps = MeasureQps(
        [&] { executor.ExecuteConcurrent(arbi_stack.service(), batch); },
        batch.size());

    EngineStack det_stack = EngineStack::WithArbi(corpus, k, AsArbiConfig{});
    const double det_qps = MeasureQps(
        [&] { executor.ExecuteDeterministic(*det_stack.arbi(), batch); },
        batch.size());

    if (workers == 1) {
      base_plain = plain_qps;
      base_arbi = arbi_qps;
      base_det = det_qps;
    }
    table.AddRow({static_cast<double>(workers), plain_qps, arbi_qps, det_qps,
                  plain_qps / std::max(base_plain, 1e-9),
                  arbi_qps / std::max(base_arbi, 1e-9),
                  det_qps / std::max(base_det, 1e-9)});
  }
  PrintFigure("fig15b: parallel batch throughput vs worker count", table);
}

/// Match throughput of the scatter-gather engine vs shard count: the same
/// query log, answered serially (one thread walking all shards) and with
/// a pool of one worker per shard. Answers are bitwise identical to the
/// single-index engine at every row, so this isolates the scaling of the
/// scatter phase against the partitioning + merge overhead.
void PrintShardScaling(const Corpus& corpus,
                       const std::vector<KeywordQuery>& log, size_t k) {
  const size_t queries = std::min<size_t>(log.size(), 2000);

  CsvTable table({"shards", "serial_match_qps", "pooled_match_qps",
                  "pooled_speedup"});
  double base_pooled = 0.0;
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedInvertedIndex index(corpus, shards);
    ShardedSearchService serial_engine(index, k);
    const double serial_qps = MeasureQps(
        [&] {
          for (size_t i = 0; i < queries; ++i) serial_engine.Search(log[i]);
        },
        queries);

    ThreadPool pool(shards);
    ShardedSearchService pooled_engine(index, k, &pool);
    const double pooled_qps = MeasureQps(
        [&] {
          for (size_t i = 0; i < queries; ++i) pooled_engine.Search(log[i]);
        },
        queries);

    if (shards == 1) base_pooled = pooled_qps;
    table.AddRow({static_cast<double>(shards), serial_qps, pooled_qps,
                  pooled_qps / std::max(base_pooled, 1e-9)});
  }
  PrintFigure("fig15d: sharded match throughput vs shard count", table);
}

/// Epoch maintenance cost of the dynamic-corpus layer: documents merged
/// per second and mean publish latency of CorpusManager::Apply as the
/// update batch grows. Each batch mixes adds with batch/4 removals so the
/// incremental merge exercises both the append and the filter path; every
/// row starts from a fresh manager so earlier rows cannot warm later ones.
void PrintEpochMaintenance() {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 20000;
  config.num_topics = 100;
  config.words_per_topic = 200;
  config.seed = 17;
  const size_t base_docs = PaperScale() ? 20000 : 6000;
  const size_t total_update_docs = PaperScale() ? 8192 : 2048;

  CsvTable table({"batch_docs", "publishes", "update_docs_per_s",
                  "publish_latency_ms"});
  for (const size_t batch : {16u, 64u, 256u, 1024u}) {
    SyntheticCorpusGenerator generator(config);
    CorpusManager manager(generator.Generate(base_docs));
    const size_t publishes = std::max<size_t>(2, total_update_docs / batch);

    uint64_t update_docs = 0;
    Stopwatch watch;
    for (size_t p = 0; p < publishes; ++p) {
      CorpusDelta delta;
      const Corpus fresh = generator.Generate(batch);
      delta.add.assign(fresh.documents().begin(), fresh.documents().end());
      const Corpus& current = manager.Current()->corpus();
      const size_t removals = batch / 4;
      const size_t stride =
          std::max<size_t>(1, current.size() / std::max<size_t>(removals, 1));
      for (size_t pos = 0;
           pos < current.size() && delta.remove.size() < removals;
           pos += stride) {
        delta.remove.push_back(current.documents()[pos].id());
      }
      update_docs += delta.add.size() + delta.remove.size();
      manager.Apply(delta);
    }
    const double seconds =
        static_cast<double>(watch.ElapsedNanos()) / 1e9;
    table.AddRow({static_cast<double>(batch),
                  static_cast<double>(publishes),
                  static_cast<double>(update_docs) / std::max(seconds, 1e-9),
                  seconds * 1e3 / static_cast<double>(publishes)});
  }
  PrintFigure("fig15e: epoch update throughput vs batch size", table);
}

// Defeats dead-code elimination of the measured decode loops without
// pulling in google-benchmark here.
volatile uint64_t g_decode_sink = 0;

/// fig15f: full-scan decode throughput (millions of postings per second)
/// of the block group-varint codec against the pre-block scalar varbyte
/// pair format, reconstructed locally since the production decoder no
/// longer speaks it. The block column must stay >= the varbyte column.
void PrintDecodeThroughput() {
  CsvTable table(
      {"list_size", "block_mps", "varbyte_mps", "block_speedup"});
  for (const size_t size : {10000u, 100000u}) {
    PostingList::Builder builder;
    std::vector<uint8_t> legacy;
    uint32_t prev = 0;
    for (uint32_t d = 0; d < size; ++d) {
      const uint32_t doc = d * 3;
      const uint32_t freq = 1 + d % 7;
      builder.Add(doc, freq);
      AppendVarByte(d == 0 ? doc : doc - prev, legacy);
      AppendVarByte(freq, legacy);
      prev = doc;
    }
    const PostingList list = std::move(builder).Build();
    const size_t rounds = (PaperScale() ? 2000u : 400u) * 10000u / size;

    uint64_t sink = 0;
    Stopwatch block_watch;
    for (size_t r = 0; r < rounds; ++r) {
      for (auto it = list.begin(); it.Valid(); it.Next()) {
        sink += it.Get().freq;
      }
    }
    const double block_s =
        static_cast<double>(block_watch.ElapsedNanos()) / 1e9;

    Stopwatch legacy_watch;
    for (size_t r = 0; r < rounds; ++r) {
      size_t offset = 0;
      uint32_t doc = 0;
      for (uint32_t d = 0; d < size; ++d) {
        uint32_t delta = 0;
        uint32_t freq = 0;
        if (!TryReadVarByte(legacy, offset, delta) ||
            !TryReadVarByte(legacy, offset, freq)) {
          break;
        }
        doc += delta;
        sink += freq;
      }
      sink += doc;
    }
    const double legacy_s =
        static_cast<double>(legacy_watch.ElapsedNanos()) / 1e9;
    g_decode_sink = sink;

    const double postings =
        static_cast<double>(size) * static_cast<double>(rounds);
    const double block_mps = postings / std::max(block_s, 1e-9) / 1e6;
    const double varbyte_mps = postings / std::max(legacy_s, 1e-9) / 1e6;
    table.AddRow({static_cast<double>(size), block_mps, varbyte_mps,
                  block_mps / std::max(varbyte_mps, 1e-9)});
  }
  PrintFigure("fig15f: posting decode throughput (block vs legacy varbyte)",
              table);
}

/// fig15g: disjunction cost vs fanout under each Or merge strategy, in
/// two regimes. Over dense top-df lists most children share each minimum
/// and the flat min-scan wins outright; over sparse mid-rank lists the
/// heap wins from the crossover on. The adaptive column must track the
/// flat column on the dense table below the crossover and the heap column
/// on the sparse table at and above it (kOrHeapCrossoverChildren,
/// engine/doc_iterator.h).
void PrintOrStrategySweep(const Corpus& corpus) {
  const InvertedIndex index(corpus);

  std::vector<std::pair<size_t, TermId>> by_df;
  for (TermId term = 0; term < corpus.vocabulary().size(); ++term) {
    const size_t df = index.DocumentFrequency(term);
    if (df > 0) by_df.emplace_back(df, term);
  }
  std::sort(by_df.rbegin(), by_df.rend());

  struct Regime {
    const char* title;
    size_t start;        // df-rank of the first term handed to the union
    size_t rounds_mult;  // sparse unions finish in microseconds — more
                         // rounds, or the table is timer noise
  };
  const Regime regimes[] = {
      {"fig15g: Or-strategy throughput vs fanout (dense top-df terms)", 0, 1},
      {"fig15g: Or-strategy throughput vs fanout (sparse mid-rank terms)",
       by_df.size() / 2, 50},
  };
  for (const Regime& regime : regimes) {
    CsvTable table({"fanout", "flat_qps", "heap_qps", "adaptive_qps"});
    for (const size_t fanout : {2u, 4u, 6u, 8u, 12u, 16u, 32u, 64u}) {
      if (regime.start + fanout > by_df.size()) break;
      std::vector<QueryNode> children;
      for (size_t i = 0; i < fanout; ++i) {
        children.push_back(QueryNode::Term(by_df[regime.start + i].second));
      }
      const QueryNode node = QueryNode::Or(std::move(children));
      const size_t rounds =
          (PaperScale() ? 400 : 120) * regime.rounds_mult;

      std::vector<double> qps;
      for (const OrStrategy strategy :
           {OrStrategy::kFlat, OrStrategy::kHeap, OrStrategy::kAdaptive}) {
        uint64_t sink = 0;
        Stopwatch watch;
        for (size_t r = 0; r < rounds; ++r) {
          sink += ExecuteCount(index, node, strategy);
        }
        g_decode_sink = sink;
        const double seconds =
            static_cast<double>(watch.ElapsedNanos()) / 1e9;
        qps.push_back(static_cast<double>(rounds) /
                      std::max(seconds, 1e-9));
      }
      table.AddRow({static_cast<double>(fanout), qps[0], qps[1], qps[2]});
    }
    PrintFigure(regime.title, table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = arg.substr(std::string("--report-out=").size());
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig15_overhead [--trace-out=FILE] "
                   "[--report-out=FILE]\n");
      return 2;
    }
  }
#if !ASUP_METRICS_ENABLED
  if (!trace_out.empty() || !report_out.empty()) {
    std::fprintf(stderr,
                 "--trace-out/--report-out require an ASUP_METRICS=ON "
                 "build\n");
    return 2;
  }
#endif

  const FamilyParams params = Gamma2Family();
  const auto env = MakeEnv(params);
  const Corpus corpus = env->SampleCorpus(params.corpus_sizes.back(), 4);

  const size_t log_size = PaperScale() ? 35000 : 8000;
  AolLikeConfig log_config;
  log_config.log_size = log_size;
  log_config.unique_queries = log_size / 3;
  const AolLikeWorkload workload(corpus, log_config);

  std::vector<uint64_t> checkpoints;
  for (uint64_t c = log_size / 10; c <= log_size; c += log_size / 10) {
    checkpoints.push_back(c);
  }

#if ASUP_METRICS_ENABLED
  // Keep only the most recent traces; the corpus/workload build above is
  // excluded from the per-stage report by resetting the registry here.
  obs::TraceRingSink trace_sink(1024);
  obs::InstallTraceSink(&trace_sink);
  ResetRunMetrics();
#endif

  const auto with_cache =
      RatioSeries(corpus, workload.log(), params.k, true, checkpoints);
  const auto without_cache =
      RatioSeries(corpus, workload.log(), params.k, false, checkpoints);

  CsvTable table({"queries", "time_ratio", "time_ratio_no_cache"});
  for (size_t i = 0;
       i < std::min({checkpoints.size(), with_cache.size(),
                     without_cache.size()});
       ++i) {
    table.AddRow({static_cast<double>(checkpoints[i]), with_cache[i],
                  without_cache[i]});
  }
  PrintFigure("fig15: AS-ARBI response-time ratio vs number of queries",
              table);

  PrintParallelMode(corpus, workload.log(), params.k);

  PrintShardScaling(corpus, workload.log(), params.k);

  PrintEpochMaintenance();

  PrintDecodeThroughput();

  PrintOrStrategySweep(corpus);

  PrintRunReport("fig15c: per-stage latency percentiles (ns)");
#if ASUP_METRICS_ENABLED
  obs::InstallTraceSink(nullptr);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      return 1;
    }
    trace_sink.WriteJsonl(out);
    std::fprintf(stderr, "wrote %zu traces to %s\n",
                 trace_sink.Snapshot().size(), trace_out.c_str());
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", report_out.c_str());
      return 1;
    }
    out << obs::RunReport::Collect().Json() << "\n";
    std::fprintf(stderr, "wrote run report to %s\n", report_out.c_str());
  }
#endif
  return 0;
}
