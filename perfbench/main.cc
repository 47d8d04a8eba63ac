// perfbench: the end-to-end and per-layer benchmark of the asup query path.
//
// One closed-loop client replays a seeded query stream (the next query is
// sent only after the previous answer returns) through the plain engine,
// AS-SIMPLE, AS-ARBI and AS-DECLINE over the γ = 2 family's 2S corpus
// (32,500 documents; k = 5, γ = 2, m = 5, σ = 1, the paper's defaults).
// run.py builds and drives this binary; README.md documents the workloads
// and every metric.
//
//   perfbench --mode timed|traced|qps --workload NAME --seed N --seconds S
//             [--trace-out FILE]
//
//   timed   end-to-end metrics with tracing off: three set-ups, one checked
//           warm-up pass, then timed passes until S seconds have elapsed
//   traced  per-layer metrics: spans around each public call into a layer,
//           recorded by this file and written to --trace-out as JSONL
//   qps     serial qps of plain and AS-ARBI only; run.py compares it across
//           the default build and a -DASUP_METRICS=OFF build
//
// Prints one JSON object on stdout.

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "asup/attack/query_pool.h"
#include "asup/engine/doc_iterator.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/query_node.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/sharded_index.h"
#include "asup/obs/trace.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/hash.h"
#include "asup/util/random.h"
#include "asup/util/stopwatch.h"
#include "asup/util/thread_pool.h"
#include "asup/workload/benign_mix.h"
#include "asup/workload/epoch_stream.h"

namespace {

using namespace asup;

// The γ = 2 family at default scale (bench/bench_common.h, Gamma2Family):
// the 2S corpus is a 32,500-document sample of a 36,000-document universe,
// and the adversary's pool holds every word of a 6,000-document held-out
// sample. The corpus is fixed; --seed picks the query stream and the churn.
constexpr size_t kUniverseDocs = 36000;
constexpr size_t kHeldOutDocs = 6000;
constexpr size_t kCorpusDocs = 32500;
constexpr uint64_t kFamilySeed = 2012;
constexpr uint64_t kCorpusSalt = 4;  // ExperimentEnv::SampleCorpus salt of 2S
constexpr size_t kK = 5;
constexpr double kGamma = 2.0;
constexpr size_t kCoverSize = 5;
constexpr double kCoverRatio = 1.0;

// Stream shapes.
constexpr size_t kClients = 8;
constexpr size_t kQueriesPerClientPerEpoch = 60;
constexpr size_t kMixEpochs = 16;  // 16 epochs × 8 clients × 60 = 7,680
constexpr size_t kAolLogSize = 8000;  // bench_fig15's default-scale log
constexpr size_t kProbeQueries = 16000;
constexpr size_t kChurnDocs = 200;  // documents added and removed per publish
constexpr size_t kPublishEvery = 1920;
constexpr size_t kBatchSize = 256;
constexpr size_t kReissuePerSegment = 32;
constexpr size_t kChunkSize = 16;  // serial queries per timed chunk
constexpr size_t kMinPasses = 3;
constexpr size_t kSetups = 3;

enum class Workload { kAolMix, kProbeScan, kChurnMix };

// ---------------------------------------------------------------------------
// Statistics and output helpers.

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// The best of a run's passes.
double Best(const std::vector<double>& values, bool highest) {
  return highest ? *std::max_element(values.begin(), values.end())
                 : *std::min_element(values.begin(), values.end());
}

// Element-wise minimum: `best` keeps, for every index, the fastest reading
// any pass so far gave it.
void KeepFastest(std::vector<double>& best, const std::vector<double>& pass) {
  if (best.empty()) {
    best = pass;
    return;
  }
  for (size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], pass[i]);
  }
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Millis(const Stopwatch& watch) {
  return static_cast<double>(watch.ElapsedNanos()) * 1e-6;
}

double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Hex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

// The JSON object this binary prints.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;  // raw JSON
  std::map<std::string, uint64_t> failures;  // "<mode>.<check>" -> count
  std::vector<std::string> inconsistencies;  // whole-run check failures
  std::map<std::string, std::string> digests;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Provenance(const std::string& key, const std::string& json) {
    provenance.emplace_back(key, json);
  }

  std::string Json() const {
    std::string out = "{\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ",";
      out += Quoted(metrics[i].name) + ":{\"value\":" +
             Number(metrics[i].value) + ",\"unit\":" +
             Quoted(metrics[i].unit) + "}";
    }
    out += "},\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"failures\":{";
    const char* separator = "";
    for (const auto& [key, count] : failures) {
      out += separator;
      out += Quoted(key) + ":" + std::to_string(count);
      separator = ",";
    }
    out += "},\"inconsistencies\":[";
    separator = "";
    for (const std::string& what : inconsistencies) {
      out += separator;
      out += Quoted(what);
      separator = ",";
    }
    out += "],\"digests\":{";
    separator = "";
    for (const auto& [key, digest] : digests) {
      out += separator;
      out += Quoted(key) + ":" + Quoted(digest);
      separator = ",";
    }
    out += "},\"provenance\":{";
    separator = "";
    for (const auto& [key, json] : provenance) {
      out += separator;
      out += Quoted(key) + ":" + json;
      separator = ",";
    }
    return out + "}}";
  }
};

// ---------------------------------------------------------------------------
// Inputs: corpus, pool, stream and churn, all generated from the seed.

Corpus CopyCorpus(const Corpus& corpus) {
  return Corpus(corpus.vocabulary_ptr(), corpus.documents());
}

// `count` churn deltas (kChurnDocs added and removed each), every one valid
// against the corpus the previous ones leave behind.
std::vector<CorpusDelta> MakeDeltas(SyntheticCorpusGenerator& generator,
                                    const Corpus& corpus, size_t count,
                                    uint64_t seed) {
  EpochStreamConfig config;
  config.kind = EpochStreamKind::kChurn;
  config.num_epochs = count;
  config.docs_per_epoch = kChurnDocs;
  config.seed = seed;
  EpochStream stream(generator, config);
  std::vector<CorpusDelta> deltas;
  Corpus current = CopyCorpus(corpus);
  for (size_t i = 0; i < count; ++i) {
    deltas.push_back(stream.NextDelta(current));
    if (i + 1 < count) current = ApplyDelta(current, deltas.back());
  }
  return deltas;
}

struct Inputs {
  // Continues the universe's id sequence: churn additions come from it.
  std::unique_ptr<SyntheticCorpusGenerator> generator;
  std::unique_ptr<QueryPool> pool;
  Corpus corpus;
  // Client-tagged queries in issue order; client ids run 1..clients.
  std::vector<KeywordQuery> stream;
  size_t clients = 1;
  // deltas[j] publishes right before stream[publish_at[j]] (churn_mix).
  std::vector<size_t> publish_at;
  std::vector<CorpusDelta> deltas;
};

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs in;
  SyntheticCorpusConfig config;
  config.seed = kFamilySeed;
  in.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  const Corpus universe = in.generator->Generate(kUniverseDocs);
  const Corpus held_out = in.generator->Generate(kHeldOutDocs);
  in.pool = std::make_unique<QueryPool>(held_out);
  Rng sample(HashCombine(kFamilySeed, kCorpusSalt));
  in.corpus = universe.SampleSubcorpus(kCorpusDocs, sample);

  if (workload == Workload::kProbeScan) {
    // UNBIASED-EST's query distribution: uniform pool draws, and a rational
    // estimator never re-issues a query, so a permutation prefix.
    Rng rng(seed);
    const size_t count = std::min(kProbeQueries, in.pool->size());
    for (const uint64_t index :
         rng.SampleWithoutReplacement(in.pool->size(), count)) {
      KeywordQuery query = in.pool->QueryAt(static_cast<size_t>(index));
      query.set_client_id(1);
      in.stream.push_back(std::move(query));
    }
    return in;
  }

  BenignMixConfig mix;
  mix.num_clients = kClients;
  mix.queries_per_client_per_epoch = kQueriesPerClientPerEpoch;
  mix.log.log_size = kAolLogSize;
  mix.log.unique_queries = kAolLogSize / 3;
  mix.seed = seed;
  const BenignMix benign(in.corpus, mix);
  in.clients = kClients;
  for (uint64_t epoch = 1; epoch <= kMixEpochs; ++epoch) {
    std::vector<std::vector<KeywordQuery>> per_client;
    for (size_t c = 0; c < kClients; ++c) {
      per_client.push_back(benign.EpochQueries(c, epoch));
    }
    for (size_t i = 0; i < kQueriesPerClientPerEpoch; ++i) {
      for (size_t c = 0; c < kClients; ++c) {
        KeywordQuery query = per_client[c][i];
        query.set_client_id(c + 1);
        in.stream.push_back(std::move(query));
      }
    }
  }
  if (workload == Workload::kChurnMix) {
    for (size_t at = kPublishEvery; at < in.stream.size();
         at += kPublishEvery) {
      in.publish_at.push_back(at);
    }
    in.deltas = MakeDeltas(*in.generator, in.corpus, in.publish_at.size(),
                           seed);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Deployments: every engine of every mode over one corpus.

struct Threads {
  size_t nproc = 1;
  size_t shards = 1;
  // ParallelFor runs on the workers plus the calling thread, so each pool
  // has one worker fewer than the threads it may keep busy.
  std::unique_ptr<ThreadPool> shard_pool;  // null for a single shard
  std::unique_ptr<ThreadPool> batch_pool;
};

Threads MakeThreads() {
  Threads threads;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    threads.nproc = static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  threads.shards = std::min<size_t>(4, threads.nproc);
  if (threads.shards > 1) {
    threads.shard_pool = std::make_unique<ThreadPool>(threads.shards - 1);
  }
  // A 1-CPU machine still needs one worker: ThreadPool(0) means "all".
  threads.batch_pool =
      std::make_unique<ThreadPool>(std::max<size_t>(1, threads.nproc - 1));
  return threads;
}

AsSimpleConfig SimpleConfig() {
  AsSimpleConfig config;
  config.gamma = kGamma;
  return config;
}

AsArbiConfig ArbiConfig() {
  AsArbiConfig config;
  config.simple = SimpleConfig();
  config.cover_size = kCoverSize;
  config.cover_ratio = kCoverRatio;
  return config;
}

AsDeclineConfig DeclineConfig() {
  AsDeclineConfig config;
  config.simple = SimpleConfig();
  config.cover_size = kCoverSize;
  config.cover_ratio = kCoverRatio;
  return config;
}

// The static workloads' indexes, built once per set-up and shared by every
// pass (they are immutable).
struct StaticIndexes {
  StaticIndexes(const Corpus& corpus, size_t shards)
      : index(corpus), sharded(corpus, shards) {}
  InvertedIndex index;
  ShardedInvertedIndex sharded;
};

enum Mode : size_t {
  kPlain,
  kSimple,
  kArbi,
  kDecline,
  kSharded,
  kDet,
  kFree,
  kNumModes
};
constexpr size_t kNumDefenses = 4;  // the serial modes, one per defense
const char* const kModeName[kNumModes] = {
    "plain", "simple", "arbi", "decline", "plain.sharded", "arbi.det",
    "arbi.free"};

struct Deployment {
  // churn_mix only: publishes mutate the managers, so every deployment gets
  // a fresh pair — one single-index, one sharded.
  std::unique_ptr<CorpusManager> manager;
  std::unique_ptr<CorpusManager> sharded_manager;
  std::unique_ptr<PlainSearchEngine> plain;
  std::unique_ptr<ShardedSearchService> sharded;
  std::unique_ptr<AsSimpleEngine> simple;
  std::unique_ptr<AsArbiEngine> arbi;
  std::unique_ptr<AsDeclineEngine> decline;
  std::unique_ptr<AsArbiEngine> arbi_det;
  std::unique_ptr<AsArbiEngine> arbi_free;
};

Deployment Deploy(const Inputs& in, const StaticIndexes* fixed,
                  const Threads& threads) {
  Deployment d;
  if (fixed != nullptr) {
    d.plain = std::make_unique<PlainSearchEngine>(fixed->index, kK);
    d.sharded = std::make_unique<ShardedSearchService>(
        fixed->sharded, kK, threads.shard_pool.get());
  } else {
    d.manager = std::make_unique<CorpusManager>(CopyCorpus(in.corpus));
    CorpusManager::Options options;
    options.num_shards = threads.shards;
    d.sharded_manager =
        std::make_unique<CorpusManager>(CopyCorpus(in.corpus), options);
    d.plain = std::make_unique<PlainSearchEngine>(*d.manager, kK);
    d.sharded = std::make_unique<ShardedSearchService>(
        *d.sharded_manager, kK, threads.shard_pool.get());
  }
  d.simple = std::make_unique<AsSimpleEngine>(*d.plain, SimpleConfig());
  d.arbi = std::make_unique<AsArbiEngine>(*d.plain, ArbiConfig());
  d.decline = std::make_unique<AsDeclineEngine>(*d.plain, DeclineConfig());
  d.arbi_det = std::make_unique<AsArbiEngine>(*d.plain, ArbiConfig());
  d.arbi_free = std::make_unique<AsArbiEngine>(*d.plain, ArbiConfig());
  return d;
}

SearchService& ServiceFor(Deployment& d, size_t mode) {
  switch (mode) {
    case kPlain:
      return *d.plain;
    case kSimple:
      return *d.simple;
    case kArbi:
      return *d.arbi;
    case kDecline:
      return *d.decline;
    default:
      return *d.sharded;
  }
}

// The AS-SIMPLE state (Θ_R, μ) behind a mode's answers; null for plain.
const AsSimpleEngine* SimpleStateOf(const Deployment& d, size_t mode) {
  switch (mode) {
    case kSimple:
      return d.simple.get();
    case kArbi:
      return &d.arbi->simple_engine();
    case kDecline:
      return &d.decline->simple_engine();
    case kDet:
      return &d.arbi_det->simple_engine();
    case kFree:
      return &d.arbi_free->simple_engine();
    default:
      return nullptr;
  }
}

// ---------------------------------------------------------------------------
// Output checks (run outside every timed region).

uint64_t Digest(const std::vector<SearchResult>& answers) {
  uint64_t hash = 0;
  for (const SearchResult& answer : answers) {
    hash = HashCombine(hash, static_cast<uint64_t>(answer.status));
    hash = HashCombine(hash, answer.docs.size());
    for (const ScoredDoc& doc : answer.docs) {
      hash = HashCombine(hash, doc.doc);
      hash = HashCombine(hash, std::bit_cast<uint64_t>(doc.score));
    }
  }
  return hash;
}

bool SameAnswer(const SearchResult& a, const SearchResult& b) {
  if (a.status != b.status || a.docs.size() != b.docs.size()) return false;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].doc != b.docs[i].doc ||
        std::bit_cast<uint64_t>(a.docs[i].score) !=
            std::bit_cast<uint64_t>(b.docs[i].score)) {
      return false;
    }
  }
  return true;
}

// The plain interface reports the true status; the defenses report the
// status of the emulated corpus (|Sel(q)|/μ matches), may hide every match
// (underflow), and AS-DECLINE may refuse.
bool StatusAgrees(size_t mode, const SearchResult& answer, size_t sel,
                  double mu) {
  const bool plain = mode == kPlain || mode == kSharded;
  if (sel == 0) {
    return answer.status == QueryStatus::kUnderflow && answer.docs.empty();
  }
  const double emulated_limit = mu * static_cast<double>(kK);
  switch (answer.status) {
    case QueryStatus::kUnderflow:
      return !plain && answer.docs.empty();
    case QueryStatus::kDeclined:
      return mode == kDecline && answer.docs.empty();
    case QueryStatus::kValid:
      return plain ? answer.docs.size() == sel
                   : !answer.docs.empty() &&
                         static_cast<double>(sel) <= emulated_limit;
    case QueryStatus::kOverflow:
      return plain ? sel > kK && answer.docs.size() == kK
                   : !answer.docs.empty() &&
                         static_cast<double>(sel) > emulated_limit;
  }
  return false;
}

// |Θ_R| of one AS-SIMPLE state, which must never shrink within an epoch.
class ThetaMonitor {
 public:
  explicit ThetaMonitor(const AsSimpleEngine& engine) : engine_(&engine) {}

  // False if Θ_R shrank since the previous call in the same epoch.
  bool Observe() {
    const uint64_t epoch = engine_->StateEpoch();
    const size_t size = engine_->NumActivatedDocs();
    const bool ok = epoch != epoch_ || size >= size_;
    epoch_ = epoch;
    size_ = size;
    return ok;
  }

 private:
  const AsSimpleEngine* engine_;
  uint64_t epoch_ = UINT64_MAX;
  size_t size_ = 0;
};

class Checker {
 public:
  explicit Checker(size_t stream_size) : decline_stale_(stream_size, false) {
    for (auto& flags : failed_at_) flags.assign(stream_size, false);
  }

  void Fail(size_t mode, size_t position, const std::string& check) {
    ++failures_[std::string(kModeName[mode]) + "." + check];
    failed_at_[mode][position] = true;
  }

  // AS-DECLINE answers a repeated query from a private cache it never
  // clears. Notes whether stream[position] was such a cache hit, served in
  // a later segment (epoch) than the one its answer was cached in.
  void DeclineServed(size_t position, const std::string& query,
                     size_t segment, bool cache_hit) {
    const auto it = decline_cached_in_.try_emplace(query, segment).first;
    if (!cache_hit) it->second = segment;  // a miss caches a fresh answer
    decline_stale_[position] = cache_hit && it->second < segment;
  }

  // A failure on a stale AS-DECLINE cache hit is labeled "<check>.stale".
  void CheckAnswer(size_t mode, size_t position, const SearchResult& answer,
                   const std::vector<DocId>& sel, double mu) {
    const std::string stale =
        mode == kDecline && decline_stale_[position] ? ".stale" : "";
    if (answer.docs.size() > kK) Fail(mode, position, "size" + stale);
    for (const ScoredDoc& doc : answer.docs) {
      if (!std::binary_search(sel.begin(), sel.end(), doc.doc)) {
        Fail(mode, position, "subset" + stale);
        break;
      }
    }
    if (!StatusAgrees(mode, answer, sel.size(), mu)) {
      Fail(mode, position, "status" + stale);
    }
  }

  void Reissue(size_t mode, bool identical, double latency_us) {
    ++reissued_[mode];
    reissue_us_[mode].push_back(latency_us);
    if (!identical) {
      ++failures_[std::string(kModeName[mode]) + ".reissue"];
      ++reissue_failed_;
    }
  }

  void Inconsistent(const std::string& what) {
    inconsistencies_.push_back(what);
  }

  size_t reissued(size_t mode) const { return reissued_[mode]; }
  const std::vector<double>& reissue_us(size_t mode) const {
    return reissue_us_[mode];
  }

  // Every checked answer and every re-issue is one attempted operation.
  void Fill(Report& report) const {
    report.failures = failures_;
    report.inconsistencies = inconsistencies_;
    report.attempted = 0;
    report.failed = reissue_failed_;
    for (size_t mode = 0; mode < kNumModes; ++mode) {
      report.attempted += failed_at_[mode].size() + reissued_[mode];
      report.failed += static_cast<uint64_t>(std::count(
          failed_at_[mode].begin(), failed_at_[mode].end(), true));
    }
  }

 private:
  std::map<std::string, uint64_t> failures_;
  std::vector<std::string> inconsistencies_;
  std::array<std::vector<bool>, kNumModes> failed_at_;
  std::array<size_t, kNumModes> reissued_{};
  std::array<std::vector<double>, kNumModes> reissue_us_;
  uint64_t reissue_failed_ = 0;
  std::unordered_map<std::string, size_t> decline_cached_in_;  // -> segment
  std::vector<bool> decline_stale_;                            // by position
};

// save → load → save of one defense's state: the two saves must be equal.
struct StateProbe {
  double bytes = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  bool identical = false;
};

template <typename Engine, typename Config>
StateProbe RoundTrip(const Engine& engine, MatchingEngine& base,
                     const Config& config) {
  StateProbe probe;
  std::ostringstream first;
  const Stopwatch save;
  const bool saved = SaveDefenseState(engine, first);
  probe.save_ms = Millis(save);
  const std::string bytes = first.str();
  probe.bytes = static_cast<double>(bytes.size());

  Engine restored(base, config);
  std::istringstream in(bytes);
  const Stopwatch load;
  const bool loaded = LoadDefenseState(restored, in);
  probe.load_ms = Millis(load);
  std::ostringstream second;
  probe.identical = saved && loaded &&
                    SaveDefenseState(restored, second) &&
                    second.str() == bytes;
  return probe;
}

// ---------------------------------------------------------------------------
// Passes: the whole stream through every mode, on fresh engines.

struct ModeRun {
  // Wall time of each timed chunk, in pass order: kChunkSize serial queries
  // or one batch, and on churn_mix each publish. Every pass cuts the stream
  // into the same chunks.
  std::vector<double> chunk_s;
  std::vector<double> latency_us;     // by stream position; serial modes
  std::vector<SearchResult> answers;  // by stream position

  double Seconds() const {
    double total = 0.0;
    for (const double s : chunk_s) total += s;
    return total;
  }
};

// Engine state at the end of a pass.
struct Counters {
  AsSimpleStats simple;
  AsArbiStats arbi;
  AsDeclineStats decline;
  size_t activated_docs = 0;  // |Θ_R| of AS-SIMPLE
  size_t history_queries = 0;
  StateProbe state_simple;
  StateProbe state_arbi;
};

struct Pass {
  std::array<ModeRun, kNumModes> runs;
  Counters counters;
};

using Clients = std::array<std::vector<ClientTaggingService>, kSharded + 1>;

// Issues stream[begin, end), the segment'th publish segment, through one
// mode, closed loop.
void RunSegment(size_t mode, Deployment& d, Clients& clients,
                const BatchExecutor& batch, const Inputs& in, size_t segment,
                size_t begin, size_t end, ModeRun& run, ThetaMonitor* theta,
                Checker* checker) {
  const std::vector<KeywordQuery>& stream = in.stream;
  if (mode == kDet || mode == kFree) {
    AsArbiEngine& engine = mode == kDet ? *d.arbi_det : *d.arbi_free;
    for (size_t first = begin; first < end; first += kBatchSize) {
      const size_t count = std::min(kBatchSize, end - first);
      const std::span<const KeywordQuery> queries(stream.data() + first,
                                                  count);
      const Stopwatch chunk;
      std::vector<SearchResult> results =
          mode == kDet ? batch.ExecuteDeterministic(engine, queries)
                       : batch.ExecuteConcurrent(engine, queries);
      std::move(results.begin(), results.end(),
                run.answers.begin() + static_cast<ptrdiff_t>(first));
      run.chunk_s.push_back(chunk.ElapsedSeconds());
      if (checker != nullptr && theta != nullptr && !theta->Observe()) {
        checker->Fail(mode, first + count - 1, "theta_monotone");
      }
    }
    return;
  }
  std::vector<ClientTaggingService>& tagged = clients[mode];
  // A scatter-gather call wakes the shard pool, and the fastest reading of
  // a short chunk would pick out its luckiest wake-ups: the sharded mode is
  // timed in batch-sized chunks.
  const size_t chunk_size = mode == kSharded ? kBatchSize : kChunkSize;
  for (size_t first = begin; first < end; first += chunk_size) {
    const size_t last = std::min(end, first + chunk_size);
    const Stopwatch chunk;
    for (size_t i = first; i < last; ++i) {
      const uint64_t decline_hits =
          checker != nullptr ? d.decline->stats().cache_hits : 0;
      const Stopwatch query;
      run.answers[i] = tagged[stream[i].client_id() - 1].Search(stream[i]);
      run.latency_us[i] = Micros(query.ElapsedNanos());
      if (checker == nullptr) continue;
      if (theta != nullptr && !theta->Observe()) {
        checker->Fail(mode, i, "theta_monotone");
      }
      if (mode == kDecline) {
        checker->DeclineServed(i, stream[i].canonical(), segment,
                               d.decline->stats().cache_hits != decline_hits);
      }
    }
    run.chunk_s.push_back(chunk.ElapsedSeconds());
  }
}

// Checks every answer of stream[begin, end) against plain MatchIds in the
// current epoch, and re-issues a seeded sample through the serial services.
void CheckSegment(Deployment& d, Clients& clients, const Inputs& in,
                  Pass& pass, size_t begin, size_t end, uint64_t salt,
                  Checker& checker) {
  std::unordered_map<std::string, std::vector<DocId>> sel;
  for (size_t i = begin; i < end; ++i) {
    const KeywordQuery& query = in.stream[i];
    auto [it, inserted] = sel.try_emplace(query.canonical());
    if (inserted) it->second = d.plain->MatchIds(query);
    for (size_t mode = 0; mode < kNumModes; ++mode) {
      const AsSimpleEngine* state = SimpleStateOf(d, mode);
      checker.CheckAnswer(mode, i, pass.runs[mode].answers[i], it->second,
                          state != nullptr ? state->segment().mu() : 1.0);
    }
  }
  Rng rng(salt);
  for (size_t s = 0; s < kReissuePerSegment; ++s) {
    const size_t i = begin + rng.UniformBelow(end - begin);
    const KeywordQuery& query = in.stream[i];
    for (size_t mode = 0; mode <= kSharded; ++mode) {
      const Stopwatch watch;
      const SearchResult again =
          clients[mode][query.client_id() - 1].Search(query);
      const double latency_us = Micros(watch.ElapsedNanos());
      checker.Reissue(mode, SameAnswer(again, pass.runs[mode].answers[i]),
                      latency_us);
    }
  }
}

// One pass. With a checker it is the checked warm-up pass: Θ_R is watched
// after every query and each segment's answers are checked before the
// publish that ends it.
Pass RunPass(const Inputs& in, const StaticIndexes* fixed,
             const Threads& threads, Checker* checker, uint64_t seed) {
  Deployment d = Deploy(in, fixed, threads);
  Clients clients;
  for (size_t mode = 0; mode <= kSharded; ++mode) {
    for (size_t c = 0; c < in.clients; ++c) {
      clients[mode].emplace_back(ServiceFor(d, mode), c + 1);
    }
  }
  const BatchExecutor batch(*threads.batch_pool);
  Pass pass;
  for (size_t mode = 0; mode < kNumModes; ++mode) {
    pass.runs[mode].answers.resize(in.stream.size());
    if (mode <= kSharded) pass.runs[mode].latency_us.resize(in.stream.size());
  }
  std::array<std::unique_ptr<ThetaMonitor>, kNumModes> theta;
  if (checker != nullptr) {
    for (size_t mode = 0; mode < kNumModes; ++mode) {
      if (const AsSimpleEngine* state = SimpleStateOf(d, mode)) {
        theta[mode] = std::make_unique<ThetaMonitor>(*state);
      }
    }
  }

  size_t begin = 0;
  for (size_t segment = 0; segment <= in.publish_at.size(); ++segment) {
    const size_t end = segment < in.publish_at.size() ? in.publish_at[segment]
                                                      : in.stream.size();
    for (size_t mode = 0; mode < kNumModes; ++mode) {
      RunSegment(mode, d, clients, batch, in, segment, begin, end,
                 pass.runs[mode], theta[mode].get(), checker);
    }
    if (checker != nullptr) {
      CheckSegment(d, clients, in, pass, begin, end,
                   HashCombine(seed, segment), *checker);
    }
    if (segment < in.publish_at.size()) {
      // Inline publishes are a timed chunk of every mode: the single-index
      // one for the modes over d.plain, the sharded one for the sharded
      // service.
      const Stopwatch publish;
      d.manager->Apply(in.deltas[segment]);
      const double single = publish.ElapsedSeconds();
      const Stopwatch sharded_publish;
      d.sharded_manager->Apply(in.deltas[segment]);
      const double sharded = sharded_publish.ElapsedSeconds();
      for (size_t mode = 0; mode < kNumModes; ++mode) {
        pass.runs[mode].chunk_s.push_back(mode == kSharded ? sharded : single);
      }
    }
    begin = end;
  }

  Counters& counters = pass.counters;
  counters.simple = d.simple->stats();
  counters.arbi = d.arbi->stats();
  counters.decline = d.decline->stats();
  counters.activated_docs = d.simple->NumActivatedDocs();
  counters.history_queries = d.arbi->history().NumQueries();
  if (checker != nullptr) {
    counters.state_simple = RoundTrip(*d.simple, *d.plain, SimpleConfig());
    counters.state_arbi = RoundTrip(*d.arbi, *d.plain, ArbiConfig());
    if (!counters.state_simple.identical) {
      checker->Inconsistent("simple.state_roundtrip");
    }
    if (!counters.state_arbi.identical) {
      checker->Inconsistent("arbi.state_roundtrip");
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Set-up.

struct Setup {
  Inputs in;
  std::unique_ptr<StaticIndexes> fixed;  // null for churn_mix
};

// Generates the corpus, held-out sample and pool, builds the index (or the
// managers), generates the stream and constructs the engines; returns the
// seconds it took.
double BuildSetup(Workload workload, uint64_t seed, const Threads& threads,
                  Setup& setup) {
  setup.fixed.reset();
  setup.in = Inputs();
  const Stopwatch watch;
  setup.in = MakeInputs(workload, seed);
  if (workload != Workload::kChurnMix) {
    setup.fixed =
        std::make_unique<StaticIndexes>(setup.in.corpus, threads.shards);
  }
  const Deployment engines = Deploy(setup.in, setup.fixed.get(), threads);
  return watch.ElapsedSeconds();
}

void AddProvenance(const Inputs& in, const Threads& threads, Report& report) {
  report.Provenance("build_type", Quoted(PERFBENCH_BUILD_TYPE));
  report.Provenance("compiler", Quoted(PERFBENCH_COMPILER));
  report.Provenance("metrics_compiled",
                    ASUP_METRICS_ENABLED ? "true" : "false");
  report.Provenance("nproc", std::to_string(threads.nproc));
  report.Provenance("corpus_docs", std::to_string(in.corpus.size()));
  report.Provenance("pool_queries", std::to_string(in.pool->size()));
  report.Provenance("stream_queries", std::to_string(in.stream.size()));
  report.Provenance("clients", std::to_string(in.clients));
  report.Provenance("publishes", std::to_string(in.publish_at.size()));
  report.Provenance("docs_per_publish", std::to_string(kChurnDocs));
  report.Provenance("batch_size", std::to_string(kBatchSize));
  const std::string batch_threads =
      std::to_string(threads.batch_pool->num_threads() + 1);
  report.Provenance(
      "threads",
      "{\"plain\":1,\"simple\":1,\"arbi\":1,\"decline\":1,"
      "\"plain.sharded\":" +
          std::to_string(threads.shards) + ",\"arbi.det\":" + batch_threads +
          ",\"arbi.free\":" + batch_threads + "}");
}

// ---------------------------------------------------------------------------
// Timed mode: the end-to-end metrics.

int RunTimed(Workload workload, uint64_t seed, double seconds) {
  const Threads threads = MakeThreads();
  Setup setup;
  std::vector<double> setup_s;
  for (size_t r = 0; r < kSetups; ++r) {
    setup_s.push_back(BuildSetup(workload, seed, threads, setup));
  }
  const Inputs& in = setup.in;
  const double queries = static_cast<double>(in.stream.size());

  Checker checker(in.stream.size());
  const Pass checked =
      RunPass(in, setup.fixed.get(), threads, &checker, seed);
  Report report;
  std::array<uint64_t, kNumModes> digests{};
  for (size_t mode = 0; mode < kNumModes; ++mode) {
    digests[mode] = Digest(checked.runs[mode].answers);
    report.digests[kModeName[mode]] = Hex(digests[mode]);
  }
  // Deterministic parallel commit and scatter-gather must reproduce the
  // serial answers bit for bit.
  if (digests[kDet] != digests[kArbi]) checker.Inconsistent("arbi.det.digest");
  if (digests[kSharded] != digests[kPlain]) {
    checker.Inconsistent("plain.sharded.digest");
  }

  // Every timed pass replays the same stream on fresh engines and cuts it
  // into the same chunks, so chunk j and query i do the same work in every
  // pass (the digests below confirm it). Each metric is built from the
  // fastest reading of every chunk (qps) or every query (p50, p99) across
  // the passes. Load from outside the process only ever slows a reading
  // down, and on a shared machine it comes and goes within seconds: the
  // per-chunk minimum is the least-disturbed run of each part of the
  // stream, even when no whole pass escaped the load.
  std::array<std::vector<double>, kNumModes> fastest_chunk_s, fastest_us,
      pass_qps;
  size_t passes = 0;
  double last_pass_s = 0.0;
  const Stopwatch budget;
  // Stops before a pass that would overrun `seconds`.
  while (passes < kMinPasses ||
         budget.ElapsedSeconds() + last_pass_s <= seconds) {
    const Stopwatch pass_watch;
    const Pass pass = RunPass(in, setup.fixed.get(), threads, nullptr, seed);
    last_pass_s = pass_watch.ElapsedSeconds();
    ++passes;
    for (size_t mode = 0; mode < kNumModes; ++mode) {
      const ModeRun& run = pass.runs[mode];
      pass_qps[mode].push_back(queries / run.Seconds());
      KeepFastest(fastest_chunk_s[mode], run.chunk_s);
      KeepFastest(fastest_us[mode], run.latency_us);
      // Free-running state evolution follows the scheduler; every other
      // mode must repeat its answers exactly on fresh engines.
      if (mode != kFree && Digest(run.answers) != digests[mode]) {
        checker.Inconsistent(std::string(kModeName[mode]) + ".pass_digest");
      }
    }
  }
  const auto qps = [&](size_t mode) {
    double total = 0.0;
    for (const double s : fastest_chunk_s[mode]) total += s;
    return queries / total;
  };

  report.Add("setup_s", Median(setup_s), "s");
  for (size_t mode = 0; mode < kNumDefenses; ++mode) {
    const std::string name = kModeName[mode];
    report.Add("qps." + name, qps(mode), "1/s");
    report.Add("p50_us." + name, Percentile(fastest_us[mode], 0.50), "us");
    report.Add("p99_us." + name, Percentile(fastest_us[mode], 0.99), "us");
  }
  for (const size_t mode : {kSharded, kDet, kFree}) {
    report.Add(std::string("qps.") + kModeName[mode], qps(mode), "1/s");
  }
  checker.Fill(report);
  AddProvenance(in, threads, report);
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (const double value : values) {
      if (out.size() > 1) out += ",";
      out += Number(value);
    }
    return out + "]";
  };
  std::string pass_qps_json = "{";
  for (size_t mode = 0; mode < kNumModes; ++mode) {
    if (mode > 0) pass_qps_json += ",";
    pass_qps_json += Quoted(kModeName[mode]) + ":" + list(pass_qps[mode]);
  }
  report.Provenance("pass_qps", pass_qps_json + "}");
  report.Provenance("setup_s", list(setup_s));
  report.Provenance("setups", std::to_string(kSetups));
  report.Provenance("timed_passes", std::to_string(passes));
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Serial qps of plain and AS-ARBI over the static corpus: alternating passes
// on fresh engines until `seconds` elapse, best pass of each. Shared by the
// traced run (default build) and qps mode (either build), so both builds
// measure the same loop.

std::pair<double, double> SerialQps(const Inputs& in,
                                    const InvertedIndex& index,
                                    double seconds) {
  std::vector<double> plain_qps, arbi_qps;
  const double queries = static_cast<double>(in.stream.size());
  const Stopwatch budget;
  while (plain_qps.size() < kMinPasses || budget.ElapsedSeconds() < seconds) {
    PlainSearchEngine plain(index, kK);
    const Stopwatch plain_watch;
    for (const KeywordQuery& query : in.stream) plain.Search(query);
    plain_qps.push_back(queries / plain_watch.ElapsedSeconds());

    AsArbiEngine arbi(plain, ArbiConfig());
    const Stopwatch arbi_watch;
    for (const KeywordQuery& query : in.stream) arbi.Search(query);
    arbi_qps.push_back(queries / arbi_watch.ElapsedSeconds());
  }
  return {Best(plain_qps, true), Best(arbi_qps, true)};
}

int RunQps(Workload workload, uint64_t seed, double seconds) {
  const Threads threads = MakeThreads();
  const Inputs in = MakeInputs(workload, seed);
  const InvertedIndex index(in.corpus);
  const auto [plain, arbi] = SerialQps(in, index, seconds);
  Report report;
  report.Add("serial_qps.plain", plain, "1/s");
  report.Add("serial_qps.arbi", arbi, "1/s");
  AddProvenance(in, threads, report);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

#if ASUP_METRICS_ENABLED

// ---------------------------------------------------------------------------
// Traced mode: the per-layer metrics.
//
// Each query is decomposed into the public calls the engine itself makes:
// plain = PinSnapshot + TopMatchesIn; AS-SIMPLE / AS-ARBI = HasCachedAnswer,
// then PrefetchMatches + SearchPrefetched (or Search on a cache hit);
// AS-DECLINE = Search. The root span runs from the first call to the last.
// Layers inside one of these calls are timed by re-running their own public
// call on the same input as a "replay" span outside the root; a replay's
// duration is charged to its layer and taken out of its parent span's self
// time (ExecuteMatch's parent is the TopMatchesIn it is part of). Every
// nanosecond of a root is charged to exactly one layer or to "unattributed"
// (the gaps between calls), so per defense the layer self times plus
// unattributed sum to the root time. "probe" replays (match
// count, sharded top-k) feed per-layer latencies and are charged nowhere.

enum Layer : size_t {
  kIndexLayer,
  kMatchLayer,
  kRankLayer,
  kCacheLayer,
  kSuppressLayer,
  kCoverLayer,
  kDeclineLayer,
  kUnattributed,
  kNumLayers
};
const char* const kLayerName[kNumLayers] = {
    "index", "match", "rank", "cache", "suppress", "cover", "decline",
    "unattributed"};

struct Span {
  const char* defense;
  uint32_t query;
  const char* name;   // the public call
  const char* layer;  // where its self time is charged
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index of the enclosing span; -1 for a root
  bool replay;
};

// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  int64_t Now() const { return clock_.ElapsedNanos(); }

  int64_t Add(const char* defense, uint32_t query, const char* name,
              const char* layer, int64_t start, int64_t end, int64_t parent,
              bool replay) {
    spans_.push_back(
        {defense, query, name, layer, start, end, parent, replay});
    return LastSpan();
  }

  int64_t LastSpan() const { return static_cast<int64_t>(spans_.size()) - 1; }

  void WriteJsonl(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "{\"defense\":\"" << s.defense << "\",\"query\":" << s.query
          << ",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent
          << ",\"replay\":" << (s.replay ? "true" : "false") << "}\n";
    }
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
};

// Per-defense sums of self time by layer.
struct LayerTotals {
  std::array<int64_t, kNumLayers> ns{};
  int64_t root_ns = 0;
};

struct TraceSamples {
  std::vector<double> count_us, materialize_us, rank_self_us, shard_topk_us;
  std::vector<double> find_us;
  std::array<std::vector<double>, kNumDefenses> miss_us, prefetch_us,
      commit_us, migrate_ms;
  double prefetch_ns = 0.0, commit_ns = 0.0;  // AS-ARBI misses
  double sel_sum = 0.0, returned_sum = 0.0, overflowing = 0.0;
  std::vector<double> apply_ms;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// A replay timed before the span it belongs to exists.
struct EarlyReplay {
  int64_t start = 0;
  int64_t ns = 0;
};

// The documents a cover must reach, ⌈σ·|Sel(q)|⌉ (CoverFinder::Find).
double CoverNeed(size_t sel) {
  return std::ceil(kCoverRatio * static_cast<double>(sel));
}

const size_t kMatchLimit =
    static_cast<size_t>(std::ceil(kGamma * static_cast<double>(kK)));

class TracedRun {
 public:
  TracedRun(Deployment& d, Tracer& tracer) : d_(d), tracer_(tracer) {}

  void Plain(const KeywordQuery& query, uint32_t qi) {
    const int64_t t0 = tracer_.Now();
    const SnapshotHandle snapshot = d_.plain->PinSnapshot();
    const int64_t t1 = tracer_.Now();
    const int64_t t2 = tracer_.Now();
    const RankedMatches top = d_.plain->TopMatchesIn(*snapshot, query, kK);
    const int64_t t3 = tracer_.Now();
    const int64_t root = Root("plain", qi, t0, t3);
    tracer_.Add("plain", qi, "PinSnapshot", "index", t0, t1, root, false);
    const int64_t topk = tracer_.Add("plain", qi, "TopMatchesIn", "rank", t2,
                                     t3, root, false);

    const InvertedIndex& index = snapshot->index();
    const QueryNode node = QueryNode::FromKeywords(query);
    const int64_t match_ns =
        Replay("plain", qi, "ExecuteMatch", "match", topk, [&] {
          return ExecuteMatch(index, node, query.terms()).size();
        });
    const int64_t count_ns = Replay("plain", qi, "ExecuteCount", "probe", root,
                                    [&] { return ExecuteCount(index, node); });
    const SnapshotHandle sharded_snapshot = d_.sharded->PinSnapshot();
    const int64_t shard_ns = Replay(
        "plain", qi, "ShardedSearchService::TopMatchesIn", "probe", root, [&] {
          return d_.sharded->TopMatchesIn(*sharded_snapshot, query, kK)
              .total_matches;
        });

    LayerTotals& totals = totals_[kPlain];
    totals.ns[kIndexLayer] += t1 - t0;
    totals.ns[kMatchLayer] += match_ns;
    totals.ns[kRankLayer] += (t3 - t2) - match_ns;
    totals.ns[kUnattributed] += t2 - t1;
    totals.root_ns += t3 - t0;
    samples_.count_us.push_back(Micros(count_ns));
    samples_.materialize_us.push_back(Micros(match_ns));
    samples_.rank_self_us.push_back(Micros((t3 - t2) - match_ns));
    samples_.shard_topk_us.push_back(Micros(shard_ns));
    samples_.sel_sum += static_cast<double>(top.total_matches);
    samples_.returned_sum += static_cast<double>(top.docs.size());
    if (top.total_matches > kK) samples_.overflowing += 1.0;
  }

  // AS-SIMPLE (arbi == nullptr) or AS-ARBI.
  void Defended(size_t mode, PrefetchableService& engine, AsArbiEngine* arbi,
                const KeywordQuery& query, uint32_t qi) {
    const char* name = kModeName[mode];
    // AS-ARBI's cover search runs inside the commit against the history as
    // it stands before the commit records this query, so its replay runs
    // before the root.
    EarlyReplay cover;
    if (arbi != nullptr && !engine.HasCachedAnswer(query)) {
      // The engine's own prefetch carries match ids iff its cover trigger
      // holds; the prefetch reads the snapshot and changes no state.
      const QueryPrefetch probe = arbi->PrefetchMatches(query);
      const HistoryStore& history = arbi->history();
      // AsArbiCoverProcessor's pre-screen: Find runs only once the history
      // has disclosed enough documents to cover Sel(q).
      if (probe.has_match_ids && history.NumQueries() > 0 &&
          static_cast<double>(history.NumDocumentsSeen()) >=
              CoverNeed(probe.match_ids.size())) {
        const CoverFinder finder(history, kCoverSize, kCoverRatio);
        cover = Early([&] { (void)finder.Find(probe.match_ids); });
      }
    }

    const int64_t t0 = tracer_.Now();
    const bool cached = engine.HasCachedAnswer(query);
    const int64_t t1 = tracer_.Now();
    LayerTotals& totals = totals_[mode];
    if (cached) {
      const int64_t t2 = tracer_.Now();
      (void)engine.Search(query);
      const int64_t t3 = tracer_.Now();
      const int64_t root = Root(name, qi, t0, t3);
      tracer_.Add(name, qi, "HasCachedAnswer", "cache", t0, t1, root, false);
      tracer_.Add(name, qi, "Search", "cache", t2, t3, root, false);
      totals.ns[kCacheLayer] += (t1 - t0) + (t3 - t2);
      totals.ns[kUnattributed] += t2 - t1;
      totals.root_ns += t3 - t0;
      return;
    }
    const int64_t t2 = tracer_.Now();
    const QueryPrefetch prefetch = engine.PrefetchMatches(query);
    const int64_t t3 = tracer_.Now();
    const int64_t t4 = tracer_.Now();
    (void)engine.SearchPrefetched(query, prefetch);
    const int64_t t5 = tracer_.Now();
    const int64_t root = Root(name, qi, t0, t5);
    tracer_.Add(name, qi, "HasCachedAnswer", "cache", t0, t1, root, false);
    const int64_t pre = tracer_.Add(name, qi, "PrefetchMatches", "match", t2,
                                    t3, root, false);
    const int64_t commit = tracer_.Add(name, qi, "SearchPrefetched",
                                       "suppress", t4, t5, root, false);
    if (cover.ns > 0) {
      AddEarly(name, qi, "CoverFinder::Find", "cover", commit, cover);
    }
    // The prefetch is the match phase. Its ranking part, TopMatchesIn less
    // ExecuteMatch, is replayed after the root; the rest of the prefetch
    // (matching, AS-ARBI's match ids, the snapshot pin) is the match layer.
    const CorpusSnapshot& snapshot = *prefetch.snapshot;
    const int64_t topk_ns = Replay(name, qi, "TopMatchesIn", "rank", pre, [&] {
      return d_.plain->TopMatchesIn(snapshot, query, kMatchLimit)
          .total_matches;
    });
    const int64_t topk = tracer_.LastSpan();
    const QueryNode node = QueryNode::FromKeywords(query);
    const int64_t match_ns =
        Replay(name, qi, "ExecuteMatch", "match", topk, [&] {
          return ExecuteMatch(snapshot.index(), node, query.terms()).size();
        });

    totals.ns[kCacheLayer] += t1 - t0;
    totals.ns[kRankLayer] += topk_ns - match_ns;
    totals.ns[kMatchLayer] += (t3 - t2) - (topk_ns - match_ns);
    totals.ns[kCoverLayer] += cover.ns;
    totals.ns[kSuppressLayer] += (t5 - t4) - cover.ns;
    totals.ns[kUnattributed] += (t2 - t1) + (t4 - t3);
    totals.root_ns += t5 - t0;
    samples_.miss_us[mode].push_back(Micros(t5 - t0));
    samples_.prefetch_us[mode].push_back(Micros(t3 - t2));
    samples_.commit_us[mode].push_back(Micros(t5 - t4));
    if (mode == kArbi) {
      samples_.prefetch_ns += static_cast<double>(t3 - t2);
      samples_.commit_ns += static_cast<double>(t5 - t4);
      if (cover.ns > 0) samples_.find_us.push_back(Micros(cover.ns));
    }
  }

  void Decline(const KeywordQuery& query, uint32_t qi) {
    AsDeclineEngine& engine = *d_.decline;
    // AS-DECLINE's private cache is never cleared, so a query is a hit iff
    // it was issued before; the engine's own counter confirms it below.
    const bool expect_hit = !decline_seen_.insert(query.canonical()).second;
    const SnapshotHandle snapshot = d_.plain->PinSnapshot();
    const QueryNode node = QueryNode::FromKeywords(query);
    const auto count = [&] {
      return query.terms().empty() ? 0 : ExecuteCount(snapshot->index(), node);
    };
    // AS-DECLINE's cover search, like AS-ARBI's, runs against the history
    // before the query is recorded, so its replay runs before the root.
    size_t sel = 0;
    bool triggered = false;
    EarlyReplay cover;
    if (!expect_hit) {
      sel = count();
      // AsDeclineTriggerProcessor's rule: m answers of at most k documents
      // can cover σ·|Sel(q)| documents.
      triggered = sel > 0 && kCoverRatio * static_cast<double>(sel) <=
                                 static_cast<double>(kCoverSize * kK);
      if (triggered) {
        const std::vector<DocId> match_ids =
            d_.plain->MatchIdsIn(*snapshot, query);
        const CoverFinder finder(engine.history(), kCoverSize, kCoverRatio);
        cover = Early([&] { (void)finder.Find(match_ids); });
      }
    }
    const uint64_t hits_before = engine.stats().cache_hits;
    const int64_t t0 = tracer_.Now();
    const SearchResult result = engine.Search(query);
    const int64_t t1 = tracer_.Now();
    const bool hit = engine.stats().cache_hits != hits_before;
    const int64_t root = Root("decline", qi, t0, t1);
    const int64_t search = tracer_.Add("decline", qi, "Search",
                                       hit ? "cache" : "decline", t0, t1,
                                       root, false);
    LayerTotals& totals = totals_[kDecline];
    totals.root_ns += t1 - t0;
    if (hit || expect_hit) {
      totals.ns[hit ? kCacheLayer : kDeclineLayer] += t1 - t0;
      return;
    }
    if (cover.ns > 0) {
      AddEarly("decline", qi, "CoverFinder::Find", "cover", search, cover);
    }
    // Stateless inner layers of the Search, replayed after the root.
    const int64_t count_ns =
        Replay("decline", qi, "ExecuteCount", "match", search, count);
    int64_t ids_ns = 0, topk_ns = 0, match_ns = 0;
    if (triggered) {
      ids_ns = Replay("decline", qi, "MatchIdsIn", "match", search, [&] {
        return d_.plain->MatchIdsIn(*snapshot, query).size();
      });
    }
    if (sel > 0 && result.status != QueryStatus::kDeclined) {
      // The AS-SIMPLE fall-through's match phase.
      topk_ns = Replay("decline", qi, "TopMatchesIn", "rank", search, [&] {
        return d_.plain->TopMatchesIn(*snapshot, query, kMatchLimit)
            .total_matches;
      });
      const int64_t topk = tracer_.LastSpan();
      match_ns = Replay("decline", qi, "ExecuteMatch", "match", topk, [&] {
        return ExecuteMatch(snapshot->index(), node, query.terms()).size();
      });
    }
    totals.ns[kMatchLayer] += count_ns + ids_ns + match_ns;
    totals.ns[kRankLayer] += topk_ns - match_ns;
    totals.ns[kCoverLayer] += cover.ns;
    totals.ns[kDeclineLayer] +=
        (t1 - t0) - count_ns - ids_ns - cover.ns - topk_ns;
    samples_.miss_us[kDecline].push_back(Micros(t1 - t0));
  }

  const std::array<LayerTotals, kNumDefenses>& totals() const {
    return totals_;
  }
  TraceSamples& samples() { return samples_; }

 private:
  int64_t Root(const char* defense, uint32_t qi, int64_t start, int64_t end) {
    return tracer_.Add(defense, qi, "query", "root", start, end, -1, false);
  }

  // Times `body` as a replay span of `parent`; returns its duration.
  template <typename Body>
  int64_t Replay(const char* defense, uint32_t qi, const char* name,
                 const char* layer, int64_t parent, Body&& body) {
    const int64_t start = tracer_.Now();
    sink_ += static_cast<uint64_t>(body());
    const int64_t end = tracer_.Now();
    tracer_.Add(defense, qi, name, layer, start, end, parent, true);
    return end - start;
  }

  template <typename Body>
  EarlyReplay Early(Body&& body) {
    EarlyReplay replay;
    replay.start = tracer_.Now();
    body();
    replay.ns = tracer_.Now() - replay.start;
    return replay;
  }

  void AddEarly(const char* defense, uint32_t qi, const char* name,
                const char* layer, int64_t parent, const EarlyReplay& replay) {
    tracer_.Add(defense, qi, name, layer, replay.start,
                replay.start + replay.ns, parent, true);
  }

  Deployment& d_;
  Tracer& tracer_;
  std::array<LayerTotals, kNumDefenses> totals_{};
  TraceSamples samples_;
  std::unordered_set<std::string> decline_seen_;
  uint64_t sink_ = 0;  // keeps replayed results observable
};

// Publish cost on a static workload: a scratch manager over the corpus,
// AS-SIMPLE and AS-ARBI state built from the stream's head, then three
// 200-document churn publishes, each followed by eager migration.
void PublishProbe(Inputs& in, uint64_t seed, TraceSamples& samples) {
  const std::vector<CorpusDelta> deltas =
      MakeDeltas(*in.generator, in.corpus, 3, seed);
  CorpusManager manager(CopyCorpus(in.corpus));
  PlainSearchEngine plain(manager, kK);
  AsSimpleEngine simple(plain, SimpleConfig());
  AsArbiEngine arbi(plain, ArbiConfig());
  const size_t per_epoch =
      std::min(in.stream.size(), kPublishEvery) / deltas.size();
  size_t next = 0;
  for (const CorpusDelta& delta : deltas) {
    for (size_t i = 0; i < per_epoch; ++i, ++next) {
      simple.Search(in.stream[next]);
      arbi.Search(in.stream[next]);
    }
    const Stopwatch apply;
    manager.Apply(delta);
    samples.apply_ms.push_back(Millis(apply));
    const Stopwatch migrate_simple;
    simple.MigrateToCurrentEpoch();
    samples.migrate_ms[kSimple].push_back(Millis(migrate_simple));
    const Stopwatch migrate_arbi;
    arbi.MigrateToCurrentEpoch();
    samples.migrate_ms[kArbi].push_back(Millis(migrate_arbi));
  }
}

// Serial AS-ARBI qps without and with a TraceRingSink plus a
// ScopedQueryTrace per query; returns the relative slowdown.
double TraceOverhead(const Inputs& in, const InvertedIndex& index,
                     double seconds) {
  obs::TraceRingSink sink(1024);
  std::vector<double> untraced, traced;
  const double queries = static_cast<double>(in.stream.size());
  const Stopwatch budget;
  while (traced.size() < kMinPasses || budget.ElapsedSeconds() < seconds) {
    for (const bool trace : {false, true}) {
      PlainSearchEngine plain(index, kK);
      AsArbiEngine arbi(plain, ArbiConfig());
      if (trace) obs::InstallTraceSink(&sink);
      const Stopwatch watch;
      for (const KeywordQuery& query : in.stream) {
        if (trace) {
          const obs::ScopedQueryTrace scope(query.canonical());
          arbi.Search(query);
        } else {
          arbi.Search(query);
        }
      }
      (trace ? traced : untraced).push_back(queries / watch.ElapsedSeconds());
      obs::InstallTraceSink(nullptr);
    }
  }
  return Best(untraced, true) / Best(traced, true) - 1.0;
}

int RunTraced(Workload workload, uint64_t seed, double seconds,
              const std::string& trace_out) {
  const Threads threads = MakeThreads();
  Setup setup;
  BuildSetup(workload, seed, threads, setup);
  Inputs& in = setup.in;
  const double queries = static_cast<double>(in.stream.size());
  Report report;

  // The checked pass: answer checks, counters and state round trips.
  Checker checker(in.stream.size());
  const Pass checked =
      RunPass(in, setup.fixed.get(), threads, &checker, seed);
  const Counters& c = checked.counters;

  // index: build, footprint, decode.
  std::vector<double> build_s;
  std::unique_ptr<InvertedIndex> index;
  for (size_t r = 0; r < 3; ++r) {
    index.reset();
    const Stopwatch build;
    index = std::make_unique<InvertedIndex>(in.corpus);
    build_s.push_back(build.ElapsedSeconds());
  }
  double bytes = 0.0, postings = 0.0;
  for (TermId term = 0; term < in.corpus.vocabulary().size(); ++term) {
    const PostingList& list = index->Postings(term);
    bytes += static_cast<double>(list.ByteSize());
    postings += static_cast<double>(list.size());
  }
  std::vector<TermId> stream_terms;
  for (const KeywordQuery& query : in.stream) {
    stream_terms.insert(stream_terms.end(), query.terms().begin(),
                        query.terms().end());
  }
  std::sort(stream_terms.begin(), stream_terms.end());
  stream_terms.erase(std::unique(stream_terms.begin(), stream_terms.end()),
                     stream_terms.end());
  uint64_t decode_sink = 0;
  double decoded = 0.0;
  const Stopwatch decode;
  while (decode.ElapsedSeconds() < 0.25) {
    for (const TermId term : stream_terms) {
      const PostingList& list = index->Postings(term);
      for (auto it = list.begin(); it.Valid(); it.Next()) {
        decode_sink += it.Get().freq;
      }
      decoded += static_cast<double>(list.size());
    }
  }
  const double decode_mpps = decoded / decode.ElapsedSeconds() * 1e-6;

  // The traced pass: every defense over the stream, segment by segment.
  Tracer tracer;
  Deployment d = Deploy(in, setup.fixed.get(), threads);
  TracedRun run(d, tracer);
  size_t begin = 0;
  for (size_t segment = 0; segment <= in.publish_at.size(); ++segment) {
    const size_t end = segment < in.publish_at.size() ? in.publish_at[segment]
                                                      : in.stream.size();
    for (size_t i = begin; i < end; ++i) {
      run.Plain(in.stream[i], static_cast<uint32_t>(i));
    }
    for (size_t i = begin; i < end; ++i) {
      run.Defended(kSimple, *d.simple, nullptr, in.stream[i],
                   static_cast<uint32_t>(i));
    }
    for (size_t i = begin; i < end; ++i) {
      run.Defended(kArbi, *d.arbi, d.arbi.get(), in.stream[i],
                   static_cast<uint32_t>(i));
    }
    for (size_t i = begin; i < end; ++i) {
      run.Decline(in.stream[i], static_cast<uint32_t>(i));
    }
    if (segment < in.publish_at.size()) {
      TraceSamples& samples = run.samples();
      const Stopwatch apply;
      d.manager->Apply(in.deltas[segment]);
      samples.apply_ms.push_back(Millis(apply));
      d.sharded_manager->Apply(in.deltas[segment]);
      const Stopwatch migrate_simple;
      d.simple->MigrateToCurrentEpoch();
      samples.migrate_ms[kSimple].push_back(Millis(migrate_simple));
      const Stopwatch migrate_arbi;
      d.arbi->MigrateToCurrentEpoch();
      samples.migrate_ms[kArbi].push_back(Millis(migrate_arbi));
    }
    begin = end;
  }
  TraceSamples& samples = run.samples();
  if (in.publish_at.empty()) PublishProbe(in, seed, samples);

  const auto [serial_plain, serial_arbi] =
      SerialQps(in, *index, seconds / 2.0);
  const double trace_overhead = TraceOverhead(in, *index, seconds / 2.0);

  // Batch dedup: distinct queries per deterministic batch.
  double unique = 0.0;
  begin = 0;
  for (size_t segment = 0; segment <= in.publish_at.size(); ++segment) {
    const size_t end = segment < in.publish_at.size() ? in.publish_at[segment]
                                                      : in.stream.size();
    for (size_t first = begin; first < end; first += kBatchSize) {
      std::unordered_set<std::string> distinct;
      for (size_t i = first; i < std::min(end, first + kBatchSize); ++i) {
        distinct.insert(in.stream[i].canonical());
      }
      unique += static_cast<double>(distinct.size());
    }
    begin = end;
  }

  report.Add("index.build_s", Median(build_s), "s");
  report.Add("index.bytes_per_posting", Ratio(bytes, postings), "B");
  report.Add("index.decode_mpps", decode_mpps, "M/s");
  report.Add("index.apply_ms.p50", Median(samples.apply_ms), "ms");
  report.Add("index.apply_ms.max",
             *std::max_element(samples.apply_ms.begin(),
                               samples.apply_ms.end()),
             "ms");
  report.Add("match.count_us.p50", Percentile(samples.count_us, 0.50), "us");
  report.Add("match.count_us.p99", Percentile(samples.count_us, 0.99), "us");
  report.Add("match.materialize_us.p50",
             Percentile(samples.materialize_us, 0.50), "us");
  report.Add("match.materialize_us.p99",
             Percentile(samples.materialize_us, 0.99), "us");
  report.Add("match.sel_mean", samples.sel_sum / queries, "count");
  report.Add("match.overflow_share", samples.overflowing / queries, "ratio");
  report.Add("rank.self_us.p50", Percentile(samples.rank_self_us, 0.50),
             "us");
  report.Add("rank.self_us.p99", Percentile(samples.rank_self_us, 0.99),
             "us");
  report.Add("rank.topk_share", Ratio(samples.returned_sum, samples.sel_sum),
             "ratio");
  report.Add("shard.topk_us.p50", Percentile(samples.shard_topk_us, 0.50),
             "us");
  report.Add("shard.topk_us.p99", Percentile(samples.shard_topk_us, 0.99),
             "us");

  const std::array<double, kNumDefenses> hits = {
      0.0, static_cast<double>(c.simple.cache_hits),
      static_cast<double>(c.arbi.cache_hits),
      static_cast<double>(c.decline.cache_hits)};
  for (const size_t mode : {kSimple, kArbi, kDecline}) {
    const std::string name = kModeName[mode];
    // Re-issued queries are all hits; they are not part of the stream.
    const double stream_hits =
        hits[mode] - static_cast<double>(checker.reissued(mode));
    report.Add("cache.hit_share." + name, stream_hits / queries, "ratio");
    report.Add("cache.hit_us." + name,
               Percentile(checker.reissue_us(mode), 0.50), "us");
    report.Add("cache.miss_us." + name,
               Percentile(samples.miss_us[mode], 0.50), "us");
  }
  for (const size_t mode : {kSimple, kArbi}) {
    const std::string name = kModeName[mode];
    report.Add("batch.prefetch_us." + name,
               Percentile(samples.prefetch_us[mode], 0.50), "us");
    report.Add("batch.commit_us." + name,
               Percentile(samples.commit_us[mode], 0.50), "us");
  }
  report.Add("batch.prefetch_share.arbi",
             Ratio(samples.prefetch_ns,
                   samples.prefetch_ns + samples.commit_ns),
             "ratio");
  report.Add("batch.unique_share", unique / queries, "ratio");

  report.Add("hide.hidden_per_query",
             static_cast<double>(c.simple.docs_hidden) / queries, "count");
  report.Add("hide.trimmed_per_query",
             static_cast<double>(c.simple.docs_trimmed) / queries, "count");
  report.Add("hide.activated_docs", static_cast<double>(c.activated_docs),
             "count");

  const double arbi_misses =
      queries - (hits[kArbi] - static_cast<double>(checker.reissued(kArbi)));
  report.Add("cover.trigger_share",
             Ratio(static_cast<double>(c.arbi.trigger_evaluations),
                   arbi_misses),
             "ratio");
  report.Add("cover.found_share",
             Ratio(static_cast<double>(c.arbi.virtual_answers),
                   static_cast<double>(c.arbi.trigger_evaluations)),
             "ratio");
  report.Add("cover.history_queries", static_cast<double>(c.history_queries),
             "count");
  report.Add("cover.find_us.p50", Percentile(samples.find_us, 0.50), "us");
  report.Add("cover.find_us.p99", Percentile(samples.find_us, 0.99), "us");
  report.Add("decline.declined_share",
             static_cast<double>(c.decline.declined) / queries, "ratio");
  for (const size_t mode : {kSimple, kArbi}) {
    const std::string name = kModeName[mode];
    report.Add("migrate.ms." + name, Median(samples.migrate_ms[mode]), "ms");
  }
  report.Add("state.bytes.simple", c.state_simple.bytes, "B");
  report.Add("state.bytes.arbi", c.state_arbi.bytes, "B");
  report.Add("state.save_ms.simple", c.state_simple.save_ms, "ms");
  report.Add("state.save_ms.arbi", c.state_arbi.save_ms, "ms");
  report.Add("state.load_ms.simple", c.state_simple.load_ms, "ms");
  report.Add("state.load_ms.arbi", c.state_arbi.load_ms, "ms");
  report.Add("obs.trace_overhead.arbi", trace_overhead, "ratio");

  // Layer self-time shares of the traced root time, per defense.
  const std::array<std::vector<Layer>, kNumDefenses> layers = {{
      {kIndexLayer, kMatchLayer, kRankLayer},
      {kCacheLayer, kMatchLayer, kRankLayer, kSuppressLayer},
      {kCacheLayer, kMatchLayer, kRankLayer, kSuppressLayer,
       kCoverLayer},
      {kCacheLayer, kMatchLayer, kRankLayer, kCoverLayer, kDeclineLayer},
  }};
  for (size_t mode = 0; mode < kNumDefenses; ++mode) {
    const LayerTotals& totals = run.totals()[mode];
    const std::string name = kModeName[mode];
    const double root = static_cast<double>(totals.root_ns);
    for (const Layer layer : layers[mode]) {
      report.Add(std::string(kLayerName[layer]) + ".self_share." + name,
                 static_cast<double>(totals.ns[layer]) / root, "ratio");
      // Self times sum to the root by construction. What can go wrong is a
      // replay outlasting the call it was taken out of.
      if (totals.ns[layer] < 0) {
        checker.Inconsistent("trace." + name + "." + kLayerName[layer] +
                             ".negative_self_time");
      }
    }
    report.Add("unattributed." + name,
               static_cast<double>(totals.ns[kUnattributed]) / root, "ratio");
  }

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    tracer.WriteJsonl(out);
    if (!out) checker.Inconsistent("trace_out.write");
  }
  checker.Fill(report);
  AddProvenance(in, threads, report);
  report.Provenance("serial_qps",
                    "{\"plain\":" + Number(serial_plain) +
                        ",\"arbi\":" + Number(serial_arbi) + "}");
  report.Provenance("decode_checksum", std::to_string(decode_sink));
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

#endif  // ASUP_METRICS_ENABLED

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --mode timed|traced|qps --workload "
               "aol_mix|probe_scan|churn_mix --seed N --seconds S "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    args[argv[i]] = argv[i + 1];
  }
  static const std::map<std::string, Workload> kWorkloads = {
      {"aol_mix", Workload::kAolMix},
      {"probe_scan", Workload::kProbeScan},
      {"churn_mix", Workload::kChurnMix}};
  const auto workload = kWorkloads.find(args["--workload"]);
  const std::string mode = args["--mode"];
  if (workload == kWorkloads.end() || args["--seed"].empty() ||
      args["--seconds"].empty()) {
    return Usage();
  }
  const uint64_t seed = std::stoull(args["--seed"]);
  const double seconds = std::stod(args["--seconds"]);
  if (mode == "timed") return RunTimed(workload->second, seed, seconds);
  if (mode == "qps") return RunQps(workload->second, seed, seconds);
#if ASUP_METRICS_ENABLED
  if (mode == "traced") {
    return RunTraced(workload->second, seed, seconds, args["--trace-out"]);
  }
#endif
  return Usage();
}
