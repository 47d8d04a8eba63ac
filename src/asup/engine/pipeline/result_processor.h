#ifndef ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_
#define ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "asup/engine/parallel_service.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/search_service.h"

namespace asup {

// Suppress-layer type (suppress/segment.h); the pipeline only carries a
// pointer so the engine layer never depends on the suppression layer.
class IndistinguishableSegment;

/// Who answered a cover defense's query, when a defense stage did.
enum class AnsweredBy : uint8_t {
  kNone,      // cache, underflow, or AS-SIMPLE (which records no answerer)
  kSimple,    // the hiding stages (AS-ARBI / AS-DECLINE fall-through)
  kVirtual,   // virtual query processing over a cover (AS-ARBI)
  kDeclined,  // refused for a cover (AS-DECLINE)
};

/// The fixed-size outcome record of one defended query.
struct QueryOutcome {
  uint64_t docs_hidden = 0;
  uint64_t docs_reshown = 0;
  uint64_t docs_trimmed = 0;
  /// Historic answers in the cover; nonzero iff a cover was found.
  uint32_t cover_answers_used = 0;
  /// The query passed the hiding stages' guard: it gets a segment probe.
  bool probe_ready = false;
  /// Algorithm 2's trigger was size-plausible and evaluated.
  bool trigger_evaluated = false;
  AnsweredBy answered_by = AnsweredBy::kNone;

  bool covered() const { return cover_answers_used != 0; }
};

/// Per-query state threaded through a ProcessorChain — the RediSearch
/// result_processor.c shape: one mutable context, a fixed sequence of small
/// stages, each reading what upstream stages produced and writing what
/// downstream ones consume. Engines fill the input block (under their own
/// locks, where state is lock-guarded), run their chain, and read `result`
/// back out; no processor touches engine state the engine did not expose
/// here or via an explicit processor constructor argument.
struct QueryContext {
  // --- inputs, set by the engine before Run ---
  const KeywordQuery* query = nullptr;
  MatchingEngine* base = nullptr;
  /// The epoch every match/rank call resolves against. Required: every
  /// chain runs against a pinned epoch (ProcessorChain::Run checks it).
  const CorpusSnapshot* snapshot = nullptr;
  /// The interface's result limit k.
  size_t k = 0;
  /// Cap for the match stage: k for the plain interface, γ·k for the
  /// suppression engines (|M(q)| = min(|Sel(q)|, γ·k)).
  size_t match_limit = 0;
  /// Epoch-checked prefetch from BatchExecutor's deterministic mode, or
  /// null for a live query. The engine clears stale prefetches before Run.
  const QueryPrefetch* prefetch = nullptr;
  /// Whether a live match stage opens an obs span (the defended engines
  /// trace it; the undefended interface path never did).
  bool trace_match = false;
  /// Whether the match stages carry each ranked document's snapshot-local
  /// id out of the walk (RankedMatches::locals). The defended engines set
  /// it: their hide stage tests Θ_R by those ids.
  bool carry_locals = false;
  /// Segment arithmetic of the engine's pinned epoch, when the engine has
  /// one (every defended engine). Read-only.
  const IndistinguishableSegment* segment = nullptr;

  // --- match-phase state ---
  /// M(q) once a match stage ran: either `prefetch`'s ranked matches or
  /// `owned_ranked` computed live. A stage that walks the posting lists
  /// early (the cover stage) fills it, and the match stage reuses it.
  const RankedMatches* ranked = nullptr;
  RankedMatches owned_ranked;
  /// |Sel(q)|.
  size_t match_count = 0;
  bool have_match_count = false;
  /// All matching document ids, ascending (the cover evaluation): the
  /// prefetch's list or `owned_ranked.ids`.
  const std::vector<DocId>* match_ids = nullptr;

  // --- answer state ---
  /// Working answer list between the suppression stages.
  std::vector<ScoredDoc> docs;
  /// Union of the covering historic answers, extracted under the history
  /// lock by the cover stage so the virtual-answer stage needs no lock.
  std::vector<DocId> cover_pool;
  SearchResult result;
  /// Set once `result` is final (underflow, decline, virtual answer, or a
  /// status stage ran): later answer-producing stages skip themselves;
  /// stages with RunsWhenFinished() still run.
  bool finished = false;

  /// The defended query's facts. The stages set them and write no stats,
  /// metric, trace note or event of their own; the defense's recorder
  /// (DefenseRecordProcessor) writes every channel from this one record.
  /// |Sel(q)| is `match_count`.
  QueryOutcome outcome;

  // Match helpers resolving against the pinned epoch. TopMatches carries
  // local ids when `carry_locals` is set, and collects the ids of up to
  // `max_ids` matches (MatchOptions::max_ids) when that is nonzero.
  RankedMatches TopMatches(size_t limit, size_t max_ids = 0) const;
  size_t MatchCount() const;
};

/// One pipeline stage. Stateless with respect to the query: all per-query
/// state lives in the QueryContext, so one processor instance may serve
/// concurrent queries (the suppression processors reach engine state that
/// is itself internally synchronized or lock-guarded by the caller).
class ResultProcessor {
 public:
  virtual ~ResultProcessor() = default;

  /// Stable stage label for diagnostics and benches.
  virtual const char* name() const = 0;

  /// Advances the query by one stage.
  virtual void Process(QueryContext& context) const = 0;

  /// Whether the stage still runs after `context.finished` is set
  /// (recording and re-ranking stages do; answer-producing ones do not).
  virtual bool RunsWhenFinished() const { return false; }
};

/// An ordered, immutable-after-composition sequence of processors. Engines
/// compose their chain once at construction and Run it per query.
class ProcessorChain {
 public:
  ProcessorChain() = default;
  ProcessorChain(ProcessorChain&&) = default;
  ProcessorChain& operator=(ProcessorChain&&) = default;

  ProcessorChain& Add(std::unique_ptr<ResultProcessor> processor);

  /// Runs every stage in order; stages that do not RunsWhenFinished() are
  /// skipped once `context.finished` is set.
  void Run(QueryContext& context) const;

  size_t size() const { return stages_.size(); }
  const ResultProcessor& stage(size_t i) const { return *stages_[i]; }

 private:
  std::vector<std::unique_ptr<ResultProcessor>> stages_;
};

/// Match stage: ensures M(q) is available — the prefetched ranked matches
/// when usable, a live TopMatches(match_limit) against the pinned epoch
/// otherwise.
class MatchProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "match"; }
  void Process(QueryContext& context) const override;
};

/// Count stage: ensures |Sel(q)| is available without necessarily ranking
/// anything (AS-ARBI and AS-DECLINE gate on the count alone).
class MatchCountProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "match_count"; }
  void Process(QueryContext& context) const override;
};

/// The undefended interface mapping of Section 2.1: underflow when nothing
/// matched, overflow when |Sel(q)| > k, the ranked top-k either way.
class InterfaceStatusProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "interface_status"; }
  void Process(QueryContext& context) const override;
};

/// Finalizes an empty answer when nothing matched; requires a prior count
/// or match stage. Every defended chain starts its stateful half with this.
class UnderflowGuardProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "underflow_guard"; }
  void Process(QueryContext& context) const override;
};

/// Pluggable-ranker stage: re-scores the final answer with an alternate
/// ScoringFunction and re-sorts it in the engine's deterministic order
/// (descending score, ties by ascending doc id). Composing this after a
/// status stage demonstrates that rankers beyond the engine's built-in
/// BM25 drop into the pipeline without touching any engine.
class RescoreProcessor : public ResultProcessor {
 public:
  explicit RescoreProcessor(std::unique_ptr<ScoringFunction> scorer)
      : scorer_(std::move(scorer)) {}

  const char* name() const override { return "rescore"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;

 private:
  std::unique_ptr<ScoringFunction> scorer_;
};

/// The undefended interface chain (match → interface status) shared by
/// every MatchingEngine::Search call.
const ProcessorChain& InterfaceProcessorChain();

}  // namespace asup

#endif  // ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_
