// One defended query, one record. Each stage of a defense writes what it
// decided into the QueryContext's outcome record, and the recorder
// (DefenseRecordProcessor) is the only writer of the engine's stats, the
// `asup_suppress_*` metrics, the outcome trace notes and the events the
// watchtower consumes. So the channels must agree exactly (fig21 reads the
// events, perfbench reads the stats).
//
// The check drives a seeded multi-client stream, issued twice so repeats
// hit the answer cache, through AS-SIMPLE, AS-ARBI and AS-DECLINE in each
// execution mode: serial Search through one ClientTaggingService per
// client, BatchExecutor::ExecuteDeterministic over the pre-tagged stream
// (its commit frames each tagged query as the tagging decorator does), and
// BatchExecutor::ExecuteConcurrent through the per-client taggers. In the
// ASUP_METRICS=OFF build only the stats assertions compile.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_service.h"
#include "asup/obs/event_log.h"
#include "asup/obs/metrics.h"
#include "asup/obs/trace.h"
#include "asup/suppress/defended_engine.h"
#include "asup/util/random.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeTopicalRig;
using testing_util::Rig;

constexpr uint64_t kClients = 4;
constexpr size_t kQueriesPerClient = 40;

enum class Mode { kSerial, kDeterministic, kConcurrent };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSerial:
      return "serial";
    case Mode::kDeterministic:
      return "deterministic";
    case Mode::kConcurrent:
      return "concurrent";
  }
  return "?";
}

/// One pass of the stream: clients take turns, each drawing from a pool
/// of single words, word pairs and a correlated "sports <w>" family (whose
/// later members the earlier answers cover). Every query carries its
/// client's id. The returned stream is the pass issued twice.
std::vector<KeywordQuery> TwicePassStream(const Rig& rig, uint64_t seed) {
  std::vector<std::string> pool;
  for (const char* w : {"game", "team", "score", "league", "coach", "season",
                        "player", "match", "win"}) {
    pool.push_back(std::string("sports ") + w);
    pool.emplace_back(w);
  }
  const Vocabulary& vocab = rig.corpus->vocabulary();
  for (TermId t = 0; t + 1 < vocab.size() && t < 120; t += 6) {
    pool.push_back(vocab.WordOf(t));
    pool.push_back(vocab.WordOf(t) + " " + vocab.WordOf(t + 1));
  }
  Rng rng(seed);
  std::vector<KeywordQuery> pass;
  for (size_t i = 0; i < kQueriesPerClient; ++i) {
    for (uint64_t client = 1; client <= kClients; ++client) {
      KeywordQuery query = rig.Q(pool[rng.UniformBelow(pool.size())]);
      query.set_client_id(client);
      pass.push_back(std::move(query));
    }
  }
  std::vector<KeywordQuery> stream = pass;
  stream.insert(stream.end(), pass.begin(), pass.end());
  return stream;
}

std::unique_ptr<DefendedEngine> MakeEngine(MatchingEngine& base,
                                           DefenseAlgorithm defense) {
  AsArbiConfig cover;
  cover.cover_size = 10;  // widen the trigger so covers occur
  cover.cover_ratio = 0.3;
  switch (defense) {
    case DefenseAlgorithm::kSimple:
      return std::make_unique<DefendedEngine>(base, cover.simple);
    case DefenseAlgorithm::kArbi:
      return std::make_unique<DefendedEngine>(base, cover);
    case DefenseAlgorithm::kDecline:
      return std::make_unique<DefendedEngine>(base, AsDeclineConfig{cover});
  }
  return nullptr;
}

/// Routes each query to its own client's ClientTaggingService, so a batch
/// executor can drive a multi-client stream through the taggers.
class PerClientFront : public SearchService {
 public:
  explicit PerClientFront(SearchService& engine) {
    for (uint64_t client = 1; client <= kClients; ++client) {
      taggers_.push_back(
          std::make_unique<ClientTaggingService>(engine, client));
    }
  }
  SearchResult Search(const KeywordQuery& query) override {
    return taggers_.at(query.client_id() - 1)->Search(query);
  }
  size_t k() const override { return taggers_.front()->k(); }

 private:
  std::vector<std::unique_ptr<ClientTaggingService>> taggers_;
};

void RunStream(DefendedEngine& engine, Mode mode,
               const std::vector<KeywordQuery>& stream) {
  ThreadPool pool(3);
  PerClientFront front(engine);
  switch (mode) {
    case Mode::kSerial:
      for (const KeywordQuery& query : stream) {
#if ASUP_METRICS_ENABLED
        const obs::ScopedQueryTrace trace(query.canonical());
#endif
        front.Search(query);
      }
      break;
    case Mode::kDeterministic:
      BatchExecutor(pool).ExecuteDeterministic(engine, stream);
      break;
    case Mode::kConcurrent:
      BatchExecutor(pool).ExecuteConcurrent(front, stream);
      break;
  }
}

size_t DistinctQueries(const std::vector<KeywordQuery>& stream) {
  std::set<std::string> distinct;
  for (const KeywordQuery& query : stream) distinct.insert(query.canonical());
  return distinct.size();
}

#if ASUP_METRICS_ENABLED

/// Installs an event log and a trace sink that drop nothing for the
/// scope, and reads back what they and the metrics registry received.
class Channels {
 public:
  Channels()
      : log_(size_t{1} << 18),
        sink_(size_t{1} << 12),
        counters_before_(obs::MetricsRegistry::Default().CounterValues()) {
    obs::InstallEventLog(&log_);
    obs::InstallTraceSink(&sink_);
  }
  ~Channels() {
    obs::InstallTraceSink(nullptr);
    obs::InstallEventLog(nullptr);
  }
  Channels(const Channels&) = delete;
  Channels& operator=(const Channels&) = delete;

  /// Call once the run is quiesced.
  void Collect() {
    events_ = log_.Snapshot();
    EXPECT_EQ(log_.dropped(), 0u);
    EXPECT_EQ(sink_.dropped(), 0u);
    for (const obs::QueryTrace& trace : sink_.Snapshot()) {
      for (const obs::TraceNote& note : trace.notes()) {
        notes_[note.key] += note.value;
      }
    }
    const auto after = obs::MetricsRegistry::Default().CounterValues();
    for (const auto& [name, value] : after) {
      const auto before = counters_before_.find(name);
      metric_deltas_[name] =
          value - (before == counters_before_.end() ? 0 : before->second);
    }
  }

  uint64_t MetricDelta(const std::string& name) const {
    const auto it = metric_deltas_.find(name);
    return it == metric_deltas_.end() ? 0 : it->second;
  }
  /// Number of events of `kind`, and the sum of their `a` payloads.
  uint64_t Count(obs::EventKind kind) const {
    uint64_t count = 0;
    for (const obs::Event& event : events_) count += event.kind == kind;
    return count;
  }
  uint64_t SumA(obs::EventKind kind) const {
    uint64_t sum = 0;
    for (const obs::Event& event : events_) {
      if (event.kind == kind) sum += static_cast<uint64_t>(event.a);
    }
    return sum;
  }
  /// Every event of `kind` is attributed to one of the stream's clients.
  bool AllAttributed(obs::EventKind kind) const {
    for (const obs::Event& event : events_) {
      if (event.kind != kind) continue;
      if (event.client < 1 || event.client > kClients) return false;
    }
    return true;
  }
  double NoteSum(const std::string& key) const {
    const auto it = notes_.find(key);
    return it == notes_.end() ? 0.0 : it->second;
  }

 private:
  obs::EventLog log_;
  obs::TraceRingSink sink_;
  std::map<std::string, uint64_t> counters_before_;
  std::map<std::string, uint64_t> metric_deltas_;
  std::map<std::string, double> notes_;
  std::vector<obs::Event> events_;
};

#endif  // ASUP_METRICS_ENABLED

using RecordParam = std::tuple<DefenseAlgorithm, Mode>;

class RecordConsistencyTest : public ::testing::TestWithParam<RecordParam> {};

std::string ParamName(const ::testing::TestParamInfo<RecordParam>& info) {
  const auto [defense, mode] = info.param;
  const char* name = defense == DefenseAlgorithm::kSimple ? "simple"
                     : defense == DefenseAlgorithm::kArbi ? "arbi"
                                                          : "decline";
  return std::string(name) + "_" + ModeName(mode);
}

TEST_P(RecordConsistencyTest, EveryChannelReadsTheSameRecord) {
  const auto [defense, mode] = GetParam();
  const Rig rig = MakeTopicalRig(1050, 50);
  const std::vector<KeywordQuery> stream = TwicePassStream(rig, 2012);
  std::unique_ptr<DefendedEngine> engine = MakeEngine(*rig.engine, defense);

#if ASUP_METRICS_ENABLED
  Channels channels;
#endif
  RunStream(*engine, mode, stream);
  const DefendedStats stats = engine->stats();

  // Stats alone: every query counted once, every repeat a hit, and the
  // stream exercises each fact this defense has.
  EXPECT_EQ(stats.queries_processed, stream.size());
  EXPECT_EQ(stats.cache_hits, stream.size() - DistinctQueries(stream));
  EXPECT_GT(stats.docs_hidden, 0u);
  EXPECT_GT(stats.docs_trimmed, 0u);
  const uint64_t computed = stats.queries_processed - stats.cache_hits;
  switch (defense) {
    case DefenseAlgorithm::kSimple:
      EXPECT_EQ(stats.trigger_evaluations + stats.simple_answers +
                    stats.virtual_answers + stats.declined,
                0u);
      break;
    case DefenseAlgorithm::kArbi:
      EXPECT_GT(stats.virtual_answers, 0u);
      EXPECT_EQ(stats.declined, 0u);
      break;
    case DefenseAlgorithm::kDecline:
      EXPECT_GT(stats.declined, 0u);
      EXPECT_EQ(stats.virtual_answers, 0u);
      break;
  }
  if (defense != DefenseAlgorithm::kSimple) {
    EXPECT_GT(stats.simple_answers, 0u);
    EXPECT_LE(stats.simple_answers + stats.virtual_answers + stats.declined,
              computed);
    EXPECT_GE(stats.trigger_evaluations,
              stats.virtual_answers + stats.declined);
  }

#if ASUP_METRICS_ENABLED
  channels.Collect();
  using obs::EventKind;
  // Events = stats = metric deltas.
  EXPECT_EQ(channels.SumA(EventKind::kAnswerHidden), stats.docs_hidden);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_docs_hidden_total"),
            stats.docs_hidden);
  EXPECT_EQ(channels.SumA(EventKind::kAnswerTrimmed), stats.docs_trimmed);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_docs_trimmed_total"),
            stats.docs_trimmed);
  EXPECT_EQ(channels.Count(EventKind::kVirtualAnswer), stats.virtual_answers);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_arbi_virtual_answers_total"),
            stats.virtual_answers);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_declined_total"),
            stats.declined);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_arbi_simple_answers_total"),
            stats.simple_answers);
  EXPECT_EQ(channels.MetricDelta("asup_suppress_arbi_trigger_evals_total"),
            stats.trigger_evaluations);
  EXPECT_EQ(channels.Count(EventKind::kCacheHit), stats.cache_hits);
  EXPECT_EQ(channels.Count(EventKind::kCoverFound),
            stats.virtual_answers + stats.declined);
  for (EventKind kind : {EventKind::kAnswerHidden, EventKind::kAnswerTrimmed,
                         EventKind::kSegmentProbe, EventKind::kCoverFound,
                         EventKind::kVirtualAnswer, EventKind::kCacheHit}) {
    EXPECT_TRUE(channels.AllAttributed(kind));
  }
  // Every query is framed, hit or miss: by its client's tagger, or by the
  // deterministic batch's commit.
  EXPECT_EQ(channels.Count(EventKind::kQueryIssued), stream.size());
  EXPECT_EQ(channels.Count(EventKind::kAnswerServed), stream.size());
  EXPECT_TRUE(channels.AllAttributed(EventKind::kQueryIssued));
  EXPECT_TRUE(channels.AllAttributed(EventKind::kAnswerServed));

  // Trace notes = stats, on the run whose every query was traced.
  if (mode == Mode::kSerial) {
    const auto as_double = [](uint64_t value) {
      return static_cast<double>(value);
    };
    EXPECT_EQ(channels.NoteSum("docs_hidden"), as_double(stats.docs_hidden));
    EXPECT_EQ(channels.NoteSum("docs_trimmed"),
              as_double(stats.docs_trimmed));
    EXPECT_EQ(channels.NoteSum("trigger_evaluated"),
              as_double(stats.trigger_evaluations));
    EXPECT_EQ(channels.NoteSum("simple_answer"),
              as_double(stats.simple_answers));
    EXPECT_EQ(channels.NoteSum("virtual_answer"),
              as_double(stats.virtual_answers));
    EXPECT_EQ(channels.NoteSum("declined"), as_double(stats.declined));
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllDefensesAllModes, RecordConsistencyTest,
    ::testing::Combine(::testing::Values(DefenseAlgorithm::kSimple,
                                         DefenseAlgorithm::kArbi,
                                         DefenseAlgorithm::kDecline),
                       ::testing::Values(Mode::kSerial, Mode::kDeterministic,
                                         Mode::kConcurrent)),
    ParamName);

TEST(RecordDeterminismTest, DeterministicBatchRecordsWhatSerialRecords) {
  // The deterministic batch commits serially in input order, so its
  // record — every stats field — equals the serial loop's.
  const Rig rig = MakeTopicalRig(1050, 50);
  const std::vector<KeywordQuery> stream = TwicePassStream(rig, 2012);
  for (DefenseAlgorithm defense :
       {DefenseAlgorithm::kSimple, DefenseAlgorithm::kArbi,
        DefenseAlgorithm::kDecline}) {
    std::unique_ptr<DefendedEngine> serial = MakeEngine(*rig.engine, defense);
    std::unique_ptr<DefendedEngine> batch = MakeEngine(*rig.engine, defense);
    RunStream(*serial, Mode::kSerial, stream);
    RunStream(*batch, Mode::kDeterministic, stream);
    const DefendedStats a = serial->stats();
    const DefendedStats b = batch->stats();
    EXPECT_EQ(a.queries_processed, b.queries_processed);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.docs_hidden, b.docs_hidden);
    EXPECT_EQ(a.docs_trimmed, b.docs_trimmed);
    EXPECT_EQ(a.epoch_migrations, b.epoch_migrations);
    EXPECT_EQ(a.virtual_answers, b.virtual_answers);
    EXPECT_EQ(a.declined, b.declined);
    EXPECT_EQ(a.simple_answers, b.simple_answers);
    EXPECT_EQ(a.trigger_evaluations, b.trigger_evaluations);
  }
}

}  // namespace
}  // namespace asup
