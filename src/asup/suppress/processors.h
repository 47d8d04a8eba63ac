#ifndef ASUP_SUPPRESS_PROCESSORS_H_
#define ASUP_SUPPRESS_PROCESSORS_H_

/// Suppression defenses as pipeline stages.
///
/// Each of the paper's run-time defenses decomposes into small
/// ResultProcessor stages over the shared QueryContext (see
/// engine/pipeline/result_processor.h): AS-SIMPLE is match → guard →
/// hide → trim → emulated status, AS-ARBI prepends count → cover →
/// virtual answer and appends a history record, AS-DECLINE swaps the
/// virtual stage for a refusal. The stages write what they decide into
/// the context's outcome record (QueryOutcome) and nothing else. Every
/// chain ends in the shared DefenseRecordProcessor, the one writer of the
/// engine's counters, the `asup_suppress_*` outcome metrics, the outcome
/// trace notes and the defense-observability events, all read from that
/// record, so no two channels can disagree (lint rule `asup-record-once`).
///
/// DefendedEngine (suppress/defended_engine.h) owns the state the stages
/// share and hands each stage exactly the pieces it needs at construction:
/// Θ_R and the coin, the history, the recorder's counters. The engine
/// fills the context's epoch-pinned inputs (snapshot, segment) while
/// holding its epoch lock; the history stages take the history lock
/// themselves (the capability analysis checks those acquisitions
/// syntactically).

#include <atomic>
#include <cstdint>
#include <vector>

#include "asup/engine/pipeline/result_processor.h"
#include "asup/obs/event_log.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"
#include "asup/util/hash.h"

namespace asup {

/// Processing counters of one defended engine, written by
/// DefenseRecordProcessor alone (and epoch_migrations by the migration).
/// Relaxed atomics: each is a tally, read consistently only when the
/// engine is quiesced. A cache hit bumps `cache_hits` alone — one atomic
/// add on the hottest path; a query the chain answered bumps `computed`.
struct DefenseCounters {
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> computed{0};
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

  /// The largest |Sel(q)| for which TriggerPlausible(·, k) holds: the
  /// bound of the id sink a cover defense's match walk carries.
  size_t MaxPlausibleMatches(size_t k) const;

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
  /// removes answers left empty, keeping the record order. Returns the
  /// number of answers removed.
  size_t CompactTo(const CorpusSnapshot& to) ASUP_REQUIRES(mutex);

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
/// enters Θ_R. Θ_R is indexed by the local ids M(q) carries out of the
/// walk (the chain sets QueryContext::carry_locals), so no document id is
/// looked up.
class HideProcessor : public ResultProcessor {
 public:
  HideProcessor(AtomicBitmap& returned_before, const DeterministicCoin& coin)
      : returned_before_(&returned_before), coin_(&coin) {}
  const char* name() const override { return "hide"; }
  void Process(QueryContext& context) const override;

 private:
  AtomicBitmap* returned_before_;
  const DeterministicCoin* coin_;
};

/// Algorithm 1 line 14: trim the survivors to min(|M(q)|/μ, k).
class TrimProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "trim"; }
  void Process(QueryContext& context) const override;
};

/// Status in the *emulated* corpus: the defended engine behaves as if q
/// matched |Sel(q)|/μ documents, so it overflows iff |Sel(q)| > μ·k.
class EmulatedStatusProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "emulated_status"; }
  void Process(QueryContext& context) const override;
};

/// The recorder: the shared terminal stage, and the one writer of a
/// defended query's facts. From the context's outcome record it writes, in
/// this order, the engine's counters (stats()), the `asup_suppress_*`
/// metrics, one trace note per fact, and the defense-observability events
/// the watchtower consumes (hidden → segment probe → trimmed → cover →
/// virtual). The segment probe is the γ-segment of |Sel(q)|, computed via
/// IndistinguishableSegment::IndexOf — the same overflow-safe multiply
/// loop as the segment constructor, never trunc(log n / log γ).
class DefenseRecordProcessor : public ResultProcessor {
 public:
  explicit DefenseRecordProcessor(DefenseCounters& counters)
      : counters_(&counters) {}
  const char* name() const override { return "record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;

  /// The record of a query answered from the answer cache, on the
  /// lock-free and the locked path alike: one engine-local relaxed add and
  /// the event-sink check. No metric and no note — a process-wide metric
  /// add would show in the sub-µs hit latency (DESIGN.md §9).
  static void RecordHit(DefenseCounters& counters, const KeywordQuery& query,
                        const SearchResult& cached) {
    counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
    ASUP_EVENT_EMIT(kCacheHit, query.client_id(), query.hash(),
                    cached.docs.size(), 0);
  }

 private:
  DefenseCounters* counters_;
};

/// Algorithm 2's cover trigger: size-plausibility check, lock-free
/// prescreen, match-id resolution, and the cover search under the history
/// lock. The match ids come from the prefetch or from one live walk that
/// also yields M(q), which the match stage then reuses. On success the
/// covering answers' document pool is extracted into the context (still
/// under the lock); what a covered query gets is the next stage's
/// decision.
class CoverProcessor : public ResultProcessor {
 public:
  /// `max_ids` is the history's MaxPlausibleMatches(k).
  CoverProcessor(DefenseHistory& history, size_t max_ids)
      : history_(&history), max_ids_(max_ids) {}
  const char* name() const override { return "cover"; }
  void Process(QueryContext& context) const override;

 private:
  DefenseHistory* history_;
  size_t max_ids_;
};

/// AS-ARBI's answer to a covered query — virtual query processing:
/// q ∩ (Res(q1) ∪ ... ∪ Res(qu)), ranked by the base engine and capped at
/// k, with the same emulated-overflow status as AS-SIMPLE.
class VirtualAnswerProcessor : public ResultProcessor {
 public:
  VirtualAnswerProcessor(const DefenseHistory& history,
                         const AtomicBitmap& returned_before)
      : history_(&history), returned_before_(&returned_before) {}
  const char* name() const override { return "virtual"; }
  void Process(QueryContext& context) const override;

 private:
  const DefenseHistory* history_;
  const AtomicBitmap* returned_before_;  // contract checks only
};

/// AS-DECLINE's answer to a covered query (§5.2): refuse it outright
/// (kDeclined, empty answer).
class DeclineProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "decline"; }
  void Process(QueryContext& context) const override;
};

/// Records a query the AS-SIMPLE stages answered: marks the fall-through
/// in the outcome and, when the answer is non-empty, records it into the
/// history (exclusive lock). The gate is the cover outcome, not whether
/// M(q) exists: the cover stage may have computed M(q) for a query it then
/// covered.
class HistoryRecordProcessor : public ResultProcessor {
 public:
  explicit HistoryRecordProcessor(DefenseHistory& history)
      : history_(&history) {}
  const char* name() const override { return "history_record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;

 private:
  DefenseHistory* history_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_PROCESSORS_H_
