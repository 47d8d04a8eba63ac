#ifndef ASUP_OBS_TRACE_H_
#define ASUP_OBS_TRACE_H_

/// Per-query suppression tracing.
///
/// A `QueryTrace` records what the pipeline *decided* for one query — which
/// stages ran, how long each took, how many documents were hidden/trimmed,
/// whether the cover trigger fired, whether the answer came from the cache
/// or the virtual path — as a list of nested spans plus numeric notes.
/// Engines are instrumented with the `ASUP_TRACE_*` macros, which write to
/// a thread-local *active* trace; a harness opts a query in by constructing
/// a `ScopedQueryTrace` around the Search call (no sink installed ⇒ the
/// scope is inert and the macros cost one thread-local load).
///
/// Completed traces go to the installed `TraceRingSink`, a fixed-capacity
/// ring that keeps the most recent traces and can dump them as JSONL (one
/// trace per line; see DESIGN.md §11 for the schema). Benches expose this
/// as `--trace-out=FILE`.
///
/// Stage spans double as metrics: closing a span observes the stage's
/// latency histogram `asup_pipeline_stage_ns{stage="..."}` in the default
/// registry, which is what RunReport's per-stage percentiles are built
/// from. `ASUP_TRACE_STAGE` therefore instruments both surfaces at once,
/// with or without an active trace.
///
/// Compiled out together with the metrics layer (`-DASUP_METRICS=OFF`):
/// the macros expand to nothing and no obs symbol is referenced.

#include "asup/obs/metrics.h"

#if ASUP_METRICS_ENABLED

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "asup/util/annotated_mutex.h"
#include "asup/util/stopwatch.h"

namespace asup {
namespace obs {

/// Pipeline stages, one histogram and span label each. Keep StageName in
/// sync.
enum class Stage : uint8_t {
  kMatch = 0,       // M(q) / |Sel(q)| against the immutable index
  kHide,            // AS-SIMPLE per-document edge removal (Alg. 1 l. 7-13)
  kTrim,            // AS-SIMPLE LHS-degree cut (Alg. 1 l. 14)
  kCover,           // AS-ARBI trigger: prescreen + exact/greedy set cover
  kVirtual,         // AS-ARBI virtual answer assembly
  kCacheLookup,     // answer-cache claim (may block on an in-flight twin)
  kHistoryRecord,   // AS-ARBI history append (exclusive lock)
  kPrefetch,        // BatchExecutor deterministic-mode parallel prefetch
  kCommit,          // BatchExecutor deterministic-mode serial commit
  kShardMatch,      // scatter: match + local top-k on one id partition
  kShardMerge,      // gather: exact global merge of per-partition candidates
  kEpochBuild,      // CorpusManager: incremental merge of the next epoch
  kEpochMigrate,    // suppression-state migration to a newer corpus epoch
};
inline constexpr size_t kNumStages =
    static_cast<size_t>(Stage::kEpochMigrate) + 1;

const char* StageName(Stage stage);

/// One closed span: [start_ns, start_ns + duration_ns) relative to the
/// trace's start, at nesting depth `depth` (0 = outermost).
struct TraceSpan {
  Stage stage = Stage::kMatch;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  uint32_t depth = 0;
};

/// A numeric annotation ("docs_hidden" = 3). Keys must be string literals
/// (they are stored unowned).
struct TraceNote {
  const char* key = "";
  double value = 0.0;
};

/// The trace of one query through the pipeline. Built either by the RAII
/// scopes below or directly (tests construct golden traces by hand).
class QueryTrace {
 public:
  QueryTrace() = default;
  explicit QueryTrace(std::string query) : query_(std::move(query)) {}

  const std::string& query() const { return query_; }
  uint64_t sequence() const { return sequence_; }
  void set_sequence(uint64_t s) { sequence_ = s; }

  /// Opens a span at `start_ns`; returns its index for CloseSpan. Depth is
  /// the number of currently open spans.
  size_t OpenSpan(Stage stage, int64_t start_ns);
  void CloseSpan(size_t index, int64_t end_ns);

  void AddSpan(const TraceSpan& span) { spans_.push_back(span); }
  void AddNote(const char* key, double value) {
    notes_.push_back(TraceNote{key, value});
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceNote>& notes() const { return notes_; }

  /// Appends this trace as one JSONL line (no trailing newline):
  /// {"q":"...","seq":N,"spans":[{"stage":"hide","start_ns":..,
  ///  "dur_ns":..,"depth":..},...],"notes":{"docs_hidden":3,...}}
  void AppendJson(std::string& out) const;

 private:
  std::string query_;
  uint64_t sequence_ = 0;
  uint32_t open_spans_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<TraceNote> notes_;
};

/// Fixed-capacity ring of the most recent completed traces.
class TraceRingSink {
 public:
  explicit TraceRingSink(size_t capacity);

  void Publish(QueryTrace trace) ASUP_EXCLUDES(mutex_);

  /// Total traces ever published (≥ the number retained).
  uint64_t total_published() const ASUP_EXCLUDES(mutex_);

  /// Traces the ring overwrote to make room (total_published() -
  /// retained). Each overwrite also bumps `asup_obs_traces_dropped_total`
  /// in the default registry, so silent wrap-around is visible fleet-wide.
  uint64_t dropped() const ASUP_EXCLUDES(mutex_);

  /// Retained traces, oldest first.
  std::vector<QueryTrace> Snapshot() const ASUP_EXCLUDES(mutex_);

  /// Writes every retained trace as JSONL, oldest first.
  void WriteJsonl(std::ostream& out) const ASUP_EXCLUDES(mutex_);

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mutex_;
  std::vector<QueryTrace> ring_ ASUP_GUARDED_BY(mutex_);
  // ring slot the next publish overwrites
  size_t next_ ASUP_GUARDED_BY(mutex_) = 0;
  uint64_t published_ ASUP_GUARDED_BY(mutex_) = 0;
  uint64_t dropped_ ASUP_GUARDED_BY(mutex_) = 0;
};

/// Installs the process-wide sink the scopes publish to (nullptr to
/// disable tracing). The sink is borrowed and must outlive its
/// installation. Not synchronized against in-flight queries: install
/// before issuing traced queries, uninstall after quiescing.
void InstallTraceSink(TraceRingSink* sink);
TraceRingSink* InstalledTraceSink();

/// The calling thread's active trace (nullptr outside a ScopedQueryTrace
/// or when no sink is installed).
QueryTrace* ActiveTrace();

/// Makes `query`'s pipeline observable on the calling thread for this
/// scope; publishes the trace to the installed sink on destruction.
/// Nestable (the outer trace pauses); inert when no sink is installed.
class ScopedQueryTrace {
 public:
  explicit ScopedQueryTrace(const std::string& query);
  ~ScopedQueryTrace();

  ScopedQueryTrace(const ScopedQueryTrace&) = delete;
  ScopedQueryTrace& operator=(const ScopedQueryTrace&) = delete;

 private:
  QueryTrace trace_;
  QueryTrace* previous_ = nullptr;
  const Stopwatch* previous_watch_ = nullptr;
  Stopwatch watch_;
  bool active_ = false;
};

/// RAII stage scope: times the stage, observes
/// `asup_pipeline_stage_ns{stage="..."}` on close, and records a span on
/// the active trace (if any).
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Stage stage);
  ~ScopedStageTimer();

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Stage stage_;
  Stopwatch watch_;
  QueryTrace* trace_;        // captured at open; spans close on this trace
  size_t span_index_ = 0;
  int64_t trace_start_ns_ = 0;
};

/// The elapsed-nanos offset of the calling thread's active trace (0 when
/// none) — used by ScopedStageTimer to place spans on the trace timeline.
int64_t ActiveTraceElapsedNanos();

/// Adds a note to the active trace; no-op without one.
void NoteActiveTrace(const char* key, double value);

}  // namespace obs
}  // namespace asup

#define ASUP_OBS_CONCAT_INNER_(a, b) a##b
#define ASUP_OBS_CONCAT_(a, b) ASUP_OBS_CONCAT_INNER_(a, b)

/// Times the rest of the enclosing scope as `stage` (metrics histogram +
/// span on the active trace).
#define ASUP_TRACE_STAGE(stage)                 \
  ::asup::obs::ScopedStageTimer ASUP_OBS_CONCAT_(asup_stage_timer_, \
                                                 __LINE__)(stage)

/// Numeric per-query annotation; `key` must be a string literal.
#define ASUP_TRACE_NOTE(key, value) \
  ::asup::obs::NoteActiveTrace(key, static_cast<double>(value))

#else  // !ASUP_METRICS_ENABLED

#define ASUP_TRACE_STAGE(stage) (void)0
#define ASUP_TRACE_NOTE(key, value) (true ? (void)0 : ((void)(value)))

#endif  // ASUP_METRICS_ENABLED

#endif  // ASUP_OBS_TRACE_H_
