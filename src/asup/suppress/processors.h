#ifndef ASUP_SUPPRESS_PROCESSORS_H_
#define ASUP_SUPPRESS_PROCESSORS_H_

/// Suppression defenses as pipeline stages.
///
/// Each of the paper's run-time defenses decomposes into small
/// ResultProcessor stages over the shared QueryContext (see
/// engine/pipeline/result_processor.h): AS-SIMPLE is match → guard →
/// hide → trim → emulated status, AS-ARBI prepends count → cover →
/// virtual answer and appends a history record, AS-DECLINE swaps the
/// virtual stage for a refusal. Every chain ends in the shared
/// DefenseRecordProcessor, which emits the defense-observability events —
/// including the segment probe, computed once here via the overflow-safe
/// IndistinguishableSegment::IndexOf instead of ad-hoc log-ratio
/// arithmetic.
///
/// DefendedEngine (suppress/defended_engine.h) owns the state the stages
/// share and hands each stage exactly the pieces it needs at construction:
/// Θ_R and the coin, the counters, the history. The engine fills the
/// context's epoch-pinned inputs (snapshot, segment) while holding its
/// epoch lock; the history stages take the history lock themselves (the
/// capability analysis checks those acquisitions syntactically).

#include <atomic>
#include <cstdint>
#include <vector>

#include "asup/engine/pipeline/result_processor.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"
#include "asup/util/hash.h"

namespace asup {

/// Processing counters of one defended engine. Relaxed atomics: each is a
/// tally, read consistently only when the engine is quiesced. A repeat
/// answered before the engine lock bumps `fast_hits` alone — one atomic
/// add on the hottest path; every other query counts as `locked_queries`.
struct DefenseCounters {
  std::atomic<uint64_t> fast_hits{0};
  std::atomic<uint64_t> locked_queries{0};
  /// Cache hits found under the engine lock (a duplicate that raced the
  /// first issue, or an entry the fast path's epoch check missed).
  std::atomic<uint64_t> locked_hits{0};
  std::atomic<uint64_t> docs_hidden{0};
  std::atomic<uint64_t> docs_trimmed{0};
  std::atomic<uint64_t> epoch_migrations{0};
  std::atomic<uint64_t> virtual_answers{0};
  std::atomic<uint64_t> simple_answers{0};
  std::atomic<uint64_t> trigger_evaluations{0};
  std::atomic<uint64_t> declined{0};
};

/// The query history of the cover-based defenses (AS-ARBI, AS-DECLINE):
/// every answer the AS-SIMPLE stages disclosed, the cover search over it,
/// and two lock-free mirrors of its size for pre-screening.
class DefenseHistory {
 public:
  /// Algorithm 2's trigger parameters: cover size m ≥ 1 historic answers,
  /// cover ratio σ ∈ (0, 1].
  DefenseHistory(size_t cover_size, double cover_ratio);

  size_t cover_size() const { return cover_size_; }
  double cover_ratio() const { return cover_ratio_; }

  /// True when m historic answers of at most k documents each could reach
  /// σ·|Sel(q)| documents — a pure size argument, no state involved. This
  /// is why most real (overflowing) queries pay almost nothing for the
  /// cover trigger (Figure 15).
  bool TriggerPlausible(size_t match_count, size_t k) const;

  /// Lock-free pre-screen: false when no cover of ⌈σ·match_count⌉
  /// documents can exist because the history is empty or has disclosed
  /// fewer documents than that. The mirrors may lag the store, which only
  /// makes the screen more conservative.
  bool MayCover(size_t match_count) const;

  /// Guards store() and the finder's traversals of it: shared for cover
  /// evaluation, exclusive for Record, Replace and epoch compaction.
  mutable SharedMutex mutex;

  const HistoryStore& store() const ASUP_REQUIRES_SHARED(mutex) {
    return store_;
  }
  /// Quiesced accessor for tests, experiments and state persistence:
  /// hands out the store without its lock.
  const HistoryStore& UnlockedStore() const ASUP_NO_THREAD_SAFETY_ANALYSIS {
    return store_;
  }

  CoverResult Find(const std::vector<DocId>& match_ids) const
      ASUP_REQUIRES_SHARED(mutex) {
    return finder_.Find(match_ids);
  }

  /// Records a disclosed answer and refreshes the mirrors.
  void Record(const KeywordQuery& query, std::vector<DocId> answer)
      ASUP_REQUIRES(mutex);

  /// Swaps in a whole store (state restore) and refreshes the mirrors.
  void Replace(HistoryStore store) ASUP_REQUIRES(mutex);

  /// Drops documents absent from `to` from every recorded answer and
  /// removes answers left empty, keeping the record order.
  void CompactTo(const CorpusSnapshot& to) ASUP_REQUIRES(mutex);

 private:
  void RefreshMirrors() ASUP_REQUIRES(mutex);

  size_t cover_size_;
  double cover_ratio_;
  HistoryStore store_ ASUP_GUARDED_BY(mutex);
  /// Traverses store_ internally; callers hold mutex around Find (the
  /// analysis cannot see through the stored reference).
  CoverFinder finder_;
  /// Lock-free mirrors of store_.NumQueries() / NumDocumentsSeen().
  std::atomic<size_t> queries_{0};
  std::atomic<size_t> docs_seen_{0};
};

/// Algorithm 1 preconditions: |M(q)| ≤ min(|Sel(q)|, γ·k), underflow
/// short-circuit on an empty match set, and arming the segment probe for
/// every query that proceeds.
class SuppressGuardProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "simple_guard"; }
  void Process(QueryContext& context) const override;
};

/// Algorithm 1 lines 7-13: per-document edge removal against Θ_R with the
/// keyed deterministic coin; survivors land in context.docs, all of M(q)
/// enters Θ_R.
class HideProcessor : public ResultProcessor {
 public:
  HideProcessor(AtomicBitmap& returned_before, const DeterministicCoin& coin,
                DefenseCounters& counters)
      : returned_before_(&returned_before),
        coin_(&coin),
        counters_(&counters) {}
  const char* name() const override { return "hide"; }
  void Process(QueryContext& context) const override;

 private:
  AtomicBitmap* returned_before_;
  const DeterministicCoin* coin_;
  DefenseCounters* counters_;
};

/// Algorithm 1 line 14: trim the survivors to min(|M(q)|/μ, k).
class TrimProcessor : public ResultProcessor {
 public:
  explicit TrimProcessor(DefenseCounters& counters) : counters_(&counters) {}
  const char* name() const override { return "trim"; }
  void Process(QueryContext& context) const override;

 private:
  DefenseCounters* counters_;
};

/// Status in the *emulated* corpus: the defended engine behaves as if q
/// matched |Sel(q)|/μ documents, so it overflows iff |Sel(q)| > μ·k.
class EmulatedStatusProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "emulated_status"; }
  void Process(QueryContext& context) const override;
};

/// Shared terminal stage: emits the defense-observability events the
/// watchtower consumes, in a fixed order (hidden → segment probe → trimmed
/// → cover → virtual). The segment probe is the γ-segment of |Sel(q)|,
/// computed via IndistinguishableSegment::IndexOf — the same overflow-safe
/// multiply loop as the segment constructor, never trunc(log n / log γ).
class DefenseRecordProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;
};

/// Notes |Sel(q)| on the active trace (the cover defenses' pre-trigger
/// note).
class SelSizeNoteProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "sel_size_note"; }
  void Process(QueryContext& context) const override;
};

/// Algorithm 2's cover trigger: size-plausibility check, lock-free
/// prescreen, match-id resolution, and the cover search under the history
/// lock. On success the covering answers' document pool is extracted into
/// the context (still under the lock); what a covered query gets is the
/// next stage's decision.
class CoverProcessor : public ResultProcessor {
 public:
  CoverProcessor(DefenseHistory& history, DefenseCounters& counters)
      : history_(&history), counters_(&counters) {}
  const char* name() const override { return "cover"; }
  void Process(QueryContext& context) const override;

 private:
  DefenseHistory* history_;
  DefenseCounters* counters_;
};

/// AS-ARBI's answer to a covered query — virtual query processing:
/// q ∩ (Res(q1) ∪ ... ∪ Res(qu)), ranked by the base engine and capped at
/// k, with the same emulated-overflow status as AS-SIMPLE.
class VirtualAnswerProcessor : public ResultProcessor {
 public:
  VirtualAnswerProcessor(const DefenseHistory& history,
                         const AtomicBitmap& returned_before,
                         DefenseCounters& counters)
      : history_(&history),
        returned_before_(&returned_before),
        counters_(&counters) {}
  const char* name() const override { return "virtual"; }
  void Process(QueryContext& context) const override;

 private:
  const DefenseHistory* history_;
  const AtomicBitmap* returned_before_;  // contract checks only
  DefenseCounters* counters_;
};

/// AS-DECLINE's answer to a covered query (§5.2): refuse it outright
/// (kDeclined, empty answer).
class DeclineProcessor : public ResultProcessor {
 public:
  explicit DeclineProcessor(DefenseCounters& counters)
      : counters_(&counters) {}
  const char* name() const override { return "decline"; }
  void Process(QueryContext& context) const override;

 private:
  DefenseCounters* counters_;
};

/// Records a query the AS-SIMPLE stages answered: counts the fall-through
/// and, when the answer is non-empty, records it into the history
/// (exclusive lock).
class HistoryRecordProcessor : public ResultProcessor {
 public:
  HistoryRecordProcessor(DefenseHistory& history, DefenseCounters& counters)
      : history_(&history), counters_(&counters) {}
  const char* name() const override { return "history_record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;

 private:
  DefenseHistory* history_;
  DefenseCounters* counters_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_PROCESSORS_H_
