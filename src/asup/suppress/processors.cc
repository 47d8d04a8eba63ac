#include "asup/suppress/processors.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/suppress/segment.h"
#include "asup/util/check.h"

namespace asup {

DefenseHistory::DefenseHistory(size_t cover_size, double cover_ratio)
    : cover_size_(cover_size),
      cover_ratio_(cover_ratio),
      finder_(store_, cover_size, cover_ratio) {
  ASUP_CHECK(cover_size >= 1);
  ASUP_CHECK(cover_ratio > 0.0);
  ASUP_CHECK_LE(cover_ratio, 1.0);
}

bool DefenseHistory::TriggerPlausible(size_t match_count, size_t k) const {
  const double max_coverable = static_cast<double>(cover_size_ * k);
  return cover_ratio_ * static_cast<double>(match_count) <= max_coverable;
}

size_t DefenseHistory::MaxPlausibleMatches(size_t k) const {
  // Start from the real quotient m·k/σ, then step so that the bound agrees
  // with TriggerPlausible's own floating-point test exactly. The cap only
  // keeps a vanishing σ from overflowing the conversion; no corpus nears
  // it.
  constexpr double kCap = 1e15;
  const double bound = std::min(
      static_cast<double>(cover_size_ * k) / cover_ratio_, kCap);
  size_t n = static_cast<size_t>(bound);
  if (bound < kCap) {
    while (TriggerPlausible(n + 1, k)) ++n;
  }
  while (n > 0 && !TriggerPlausible(n, k)) --n;
  return n;
}

bool DefenseHistory::MayCover(size_t match_count) const {
  const size_t need = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(cover_ratio_ * static_cast<double>(match_count))));
  return queries_.load(std::memory_order_acquire) != 0 &&
         docs_seen_.load(std::memory_order_acquire) >= need;
}

void DefenseHistory::Record(const KeywordQuery& query,
                            std::vector<DocId> answer) {
  ASUP_CONTRACTS_ONLY(const size_t queries_before = store_.NumQueries();
                      const size_t docs_before = store_.NumDocumentsSeen();)
  store_.Record(query, std::move(answer));
  // Within one epoch the history only ever grows — answers, once
  // disclosed, cannot be retracted; the lock-free prescreen relies on the
  // mirrors being monotone lower bounds of the store. (Epoch compaction
  // may shrink both, but only with every prescreen reader quiesced behind
  // the exclusive epoch lock.)
  ASUP_CONTRACTS_ONLY(ASUP_CHECK_EQ(store_.NumQueries(), queries_before + 1);
                      ASUP_CHECK(store_.NumDocumentsSeen() >= docs_before);)
  RefreshMirrors();
}

void DefenseHistory::Replace(HistoryStore store) {
  store_ = std::move(store);
  RefreshMirrors();
}

size_t DefenseHistory::CompactTo(const CorpusSnapshot& to) {
  // Rebuild the store keeping the original record order, so surviving
  // entries keep their relative indices and the cover search's tie-breaks
  // stay deterministic. Deleted documents can never be matched (they left
  // the index) nor disclosed again, so dropping them loses nothing; an
  // answer with no surviving document can no longer cover anything and is
  // removed outright.
  HistoryStore compacted;
  const size_t num_queries = store_.NumQueries();
  size_t dropped_entries = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const HistoryStore::HistoricQuery& entry = store_.QueryAt(i);
    std::vector<DocId> survivors;
    survivors.reserve(entry.answer.size());
    for (DocId doc : entry.answer) {
      if (to.Contains(doc)) survivors.push_back(doc);
    }
    if (survivors.empty()) {
      ++dropped_entries;
      continue;
    }
    compacted.Record(entry.query, std::move(survivors));
  }
  store_ = std::move(compacted);
  RefreshMirrors();
  return dropped_entries;
}

void DefenseHistory::RefreshMirrors() {
  docs_seen_.store(store_.NumDocumentsSeen(), std::memory_order_release);
  queries_.store(store_.NumQueries(), std::memory_order_release);
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_queries", store_.NumQueries());
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_docs_seen",
                        store_.NumDocumentsSeen());
}

void SuppressGuardProcessor::Process(QueryContext& context) const {
  const RankedMatches& ranked = *context.ranked;
  const size_t m_size = ranked.docs.size();
  // Algorithm 1 line 5: |M(q)| = min(|Sel(q)|, γ·k).
  ASUP_CHECK_LE(m_size, context.match_limit);
  ASUP_CHECK_LE(m_size, ranked.total_matches);
  if (ranked.total_matches == 0) {
    context.result.status = QueryStatus::kUnderflow;
    context.finished = true;
    return;
  }
  // Every query that reaches the suppression stages gets a segment probe
  // (the watchtower's selectivity-stratum feature).
  context.outcome.probe_ready = true;
}

void HideProcessor::Process(QueryContext& context) const {
  const RankedMatches& ranked = *context.ranked;
  const size_t m_size = ranked.docs.size();

  // Lines 7-13: per-document edge removal. A document already in Θ_R keeps
  // its edge to this query only with probability μ/γ; the coin is a keyed
  // deterministic function of the (query, document) edge, so processing is
  // repeatable. Fresh documents are always kept and enter Θ_R — note that
  // *all* of M(q) is activated, including documents the final trim will cut
  // (exactly as in Algorithm 1, where line 14 runs after the loop). The
  // atomic test-and-set makes the fresh-or-returned decision per document
  // linearizable under concurrent queries.
  const double keep_probability = context.segment->edge_keep_probability();
  // Line 9's edge-removal coin keeps with probability μ/γ ∈ (0, 1]
  // (equivalently hides with probability 1 − μ/γ ∈ [0, 1)).
  ASUP_CHECK(keep_probability > 0.0);
  ASUP_CHECK_LE(keep_probability, 1.0);
  context.docs.reserve(m_size);
  uint64_t hidden = 0;
  uint64_t reshown = 0;
  {
    ASUP_TRACE_STAGE(obs::Stage::kHide);
    ASUP_CHECK_EQ(ranked.locals.size(), m_size);
    for (size_t i = 0; i < m_size; ++i) {
      const ScoredDoc& scored = ranked.docs[i];
      if (returned_before_->TestAndSet(ranked.locals[i])) {
        if (coin_->Accept(context.query->hash(), scored.doc,
                          keep_probability)) {
          context.docs.push_back(scored);
          ++reshown;
        } else {
          ++hidden;
        }
      } else {
        context.docs.push_back(scored);
      }
    }
  }
  context.outcome.docs_hidden = hidden;
  context.outcome.docs_reshown = reshown;
  // Θ_R monotonicity: TestAndSet only ever sets bits, so after the loop
  // every document of M(q) — kept, hidden, or about to be trimmed — is
  // activated (Algorithm 1 runs line 14 after the loop; §5.1 depends on
  // all of M(q) entering Θ_R). Each carried local id is the document's
  // own in the pinned epoch.
  ASUP_CONTRACTS_ONLY(for (size_t i = 0; i < m_size; ++i) {
    ASUP_CHECK_EQ(ranked.locals[i],
                  context.snapshot->LocalOf(ranked.docs[i].doc));
    ASUP_DCHECK(returned_before_->Test(ranked.locals[i]));
  })
  ASUP_CHECK_EQ(context.docs.size() + hidden, m_size);
}

void TrimProcessor::Process(QueryContext& context) const {
  // Line 14: trim to min(|M(q)|/μ, k) lowest-rank-last documents. When the
  // query overflows, documents hidden above are implicitly replaced by
  // lower-ranked survivors of M(q).
  ASUP_TRACE_STAGE(obs::Stage::kTrim);
  const size_t m_size = context.ranked->docs.size();
  const size_t lhs_target = static_cast<size_t>(std::llround(
      static_cast<double>(m_size) * context.segment->lhs_keep_fraction()));
  // 1/μ ≤ 1, so the trim target never exceeds |M(q)|.
  ASUP_CHECK_LE(lhs_target, m_size);
  const size_t keep = std::min(lhs_target, context.k);
  if (context.docs.size() > keep) {
    context.outcome.docs_trimmed = context.docs.size() - keep;
    context.docs.resize(keep);
  }
  // Line 14 postcondition: the answer is capped at min(|M(q)|/μ, k).
  ASUP_CHECK_LE(context.docs.size(), keep);
  ASUP_CHECK_LE(context.docs.size(), context.k);
}

void EmulatedStatusProcessor::Process(QueryContext& context) const {
  context.result.docs = std::move(context.docs);
  // Status in the *emulated* corpus: the defended engine behaves as if q
  // matched |q|/μ documents, so it overflows iff |q| > μ·k.
  if (context.result.docs.empty()) {
    context.result.status = QueryStatus::kUnderflow;
  } else if (static_cast<double>(context.ranked->total_matches) >
             context.segment->mu() * static_cast<double>(context.k)) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  context.finished = true;
}

void DefenseRecordProcessor::Process(QueryContext& context) const {
  const QueryOutcome& outcome = context.outcome;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  // Trace notes go to an actively traced query only: one thread-local
  // load decides for all of them.
  bool traced = false;
  ASUP_METRICS_ONLY(traced = obs::ActiveTrace() != nullptr;)

  // Each fact in turn: the counter behind stats(), its `asup_suppress_*`
  // metric, its trace note.
  counters_->computed.fetch_add(1, kRelaxed);
  if (traced) ASUP_TRACE_NOTE("sel_size", context.match_count);
  if (outcome.probe_ready) {
    if (outcome.docs_hidden != 0) {
      counters_->docs_hidden.fetch_add(outcome.docs_hidden, kRelaxed);
    }
    ASUP_METRIC_COUNT("asup_suppress_docs_hidden_total", outcome.docs_hidden);
    ASUP_METRIC_COUNT("asup_suppress_docs_reshown_total",
                      outcome.docs_reshown);
    if (traced) {
      ASUP_TRACE_NOTE("docs_hidden", outcome.docs_hidden);
      ASUP_TRACE_NOTE("docs_reshown", outcome.docs_reshown);
      ASUP_TRACE_NOTE("mu", context.segment->mu());
      ASUP_TRACE_NOTE("gamma", context.segment->gamma());
    }
  }
  if (outcome.docs_trimmed != 0) {
    counters_->docs_trimmed.fetch_add(outcome.docs_trimmed, kRelaxed);
    ASUP_METRIC_COUNT("asup_suppress_docs_trimmed_total",
                      outcome.docs_trimmed);
    if (traced) ASUP_TRACE_NOTE("docs_trimmed", outcome.docs_trimmed);
  }
  if (outcome.trigger_evaluated) {
    counters_->trigger_evaluations.fetch_add(1, kRelaxed);
    ASUP_METRIC_COUNT("asup_suppress_arbi_trigger_evals_total", 1);
    if (traced) ASUP_TRACE_NOTE("trigger_evaluated", 1);
  }
  if (outcome.covered() && traced) {
    ASUP_TRACE_NOTE("cover_answers_used", outcome.cover_answers_used);
  }
  switch (outcome.answered_by) {
    case AnsweredBy::kNone:
      break;
    case AnsweredBy::kSimple:
      counters_->simple_answers.fetch_add(1, kRelaxed);
      ASUP_METRIC_COUNT("asup_suppress_arbi_simple_answers_total", 1);
      if (traced) ASUP_TRACE_NOTE("simple_answer", 1);
      break;
    case AnsweredBy::kVirtual:
      counters_->virtual_answers.fetch_add(1, kRelaxed);
      ASUP_METRIC_COUNT("asup_suppress_arbi_virtual_answers_total", 1);
      if (traced) ASUP_TRACE_NOTE("virtual_answer", 1);
      break;
    case AnsweredBy::kDeclined:
      counters_->declined.fetch_add(1, kRelaxed);
      ASUP_METRIC_COUNT("asup_suppress_declined_total", 1);
      if (traced) ASUP_TRACE_NOTE("declined", 1);
      break;
  }

  // Events, in the watchtower's fixed order.
  const KeywordQuery& query = *context.query;
  if (outcome.docs_hidden != 0) {
    ASUP_EVENT_EMIT(kAnswerHidden, query.client_id(), query.hash(),
                    outcome.docs_hidden, 0);
  }
  if (outcome.probe_ready) {
    // The query's selectivity stratum: which γ-segment |Sel(q)| falls into.
    // Estimators that walk the answer-size strata (stratified, dynamic)
    // hop between strata far more often than bona fide traffic, which
    // clusters on the popular head — the watchtower's segment-crossing
    // feature counts those hops. Computed with the same exact multiply
    // loop as the segment itself: a log-ratio here truncates one segment
    // low at exact powers of γ and fabricates crossings.
    ASUP_EVENT_EMIT(kSegmentProbe, query.client_id(), query.hash(),
                    IndistinguishableSegment::IndexOf(
                        context.match_count, context.segment->gamma()),
                    context.match_count);
  }
  if (outcome.docs_trimmed != 0) {
    ASUP_EVENT_EMIT(kAnswerTrimmed, query.client_id(), query.hash(),
                    outcome.docs_trimmed, 0);
  }
  if (outcome.covered()) {
    ASUP_EVENT_EMIT(kCoverFound, query.client_id(), query.hash(),
                    outcome.cover_answers_used, context.match_count);
  }
  if (outcome.answered_by == AnsweredBy::kVirtual) {
    ASUP_EVENT_EMIT(kVirtualAnswer, query.client_id(), query.hash(),
                    context.result.docs.size(), outcome.cover_answers_used);
  }
}

void CoverProcessor::Process(QueryContext& context) const {
  if (!history_->TriggerPlausible(context.match_count, context.k)) return;
  context.outcome.trigger_evaluated = true;
  // Lock-free pre-screen: with no recorded answer, or fewer documents
  // ever disclosed than the coverage target, no cover can exist — skip
  // the history lock entirely.
  if (!history_->MayCover(context.match_count)) return;
  if (context.prefetch != nullptr && context.prefetch->has_match_ids) {
    context.match_ids = &context.prefetch->match_ids;
  } else {
    // One walk for the ids and M(q): an uncovered query's match stage
    // reuses M(q). The trigger held, so |Sel(q)| is within the sink's
    // bound and the id list is complete.
    {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      context.owned_ranked =
          context.TopMatches(context.match_limit, max_ids_);
    }
    ASUP_CHECK_EQ(context.owned_ranked.total_matches, context.match_count);
    ASUP_CHECK_EQ(context.owned_ranked.ids.size(), context.match_count);
    context.ranked = &context.owned_ranked;
    context.match_ids = &context.owned_ranked.ids;
  }
  ReaderLock lock(history_->mutex);
  CoverResult cover;
  {
    ASUP_TRACE_STAGE(obs::Stage::kCover);
    cover = history_->Find(*context.match_ids);
  }
  if (!cover.found) return;
  // Algorithm 2's cover contract: at most m historic answers...
  ASUP_CHECK(!cover.query_indices.empty());
  ASUP_CHECK_LE(cover.query_indices.size(), history_->cover_size());
  context.outcome.cover_answers_used =
      static_cast<uint32_t>(cover.query_indices.size());
  // Union of the covering historic answers, read while still holding the
  // history lock (shared side) the cover search ran under.
  const HistoryStore& store = history_->store();
  for (uint32_t qi : cover.query_indices) {
    ASUP_CHECK_LT(qi, store.NumQueries());
    const auto& answer = store.QueryAt(qi).answer;
    context.cover_pool.insert(context.cover_pool.end(), answer.begin(),
                              answer.end());
  }
  std::sort(context.cover_pool.begin(), context.cover_pool.end());
  context.cover_pool.erase(
      std::unique(context.cover_pool.begin(), context.cover_pool.end()),
      context.cover_pool.end());
}

void VirtualAnswerProcessor::Process(QueryContext& context) const {
  if (!context.outcome.covered()) return;
  context.outcome.answered_by = AnsweredBy::kVirtual;
  ASUP_TRACE_STAGE(obs::Stage::kVirtual);
  const std::vector<DocId>& match_ids = *context.match_ids;
  // q ∩ (Res(q1) ∪ ... ∪ Res(qu)); both inputs are ascending.
  std::vector<DocId> virtual_ids;
  std::set_intersection(match_ids.begin(), match_ids.end(),
                        context.cover_pool.begin(), context.cover_pool.end(),
                        std::back_inserter(virtual_ids));

  // ...covering at least ⌈σ·|Sel(q)|⌉ matching documents, every one of them
  // already disclosed by an earlier answer (so the virtual answer reveals
  // no new query–document edge and no fresh degree evidence).
  ASUP_CONTRACTS_ONLY(
      const auto need = static_cast<size_t>(
          std::ceil(history_->cover_ratio() *
                    static_cast<double>(match_ids.size())));
      ASUP_CHECK(virtual_ids.size() >= need); for (DocId doc : virtual_ids) {
        ASUP_DCHECK(returned_before_->Test(context.snapshot->LocalOf(doc)));
      })

  if (virtual_ids.empty()) {
    context.result.status = QueryStatus::kUnderflow;
    context.finished = true;
    return;
  }
  std::vector<ScoredDoc> ranked =
      context.base->RankDocsIn(*context.snapshot, *context.query, virtual_ids);
  if (ranked.size() > context.k) ranked.resize(context.k);
  // Top-k interface bound, same as every non-virtual answer path.
  ASUP_CHECK_LE(ranked.size(), context.k);
  context.result.docs = std::move(ranked);
  // Same emulated-overflow rule as AS-SIMPLE, so the two answer paths are
  // indistinguishable to the client.
  if (static_cast<double>(match_ids.size()) >
      context.segment->mu() * static_cast<double>(context.k)) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  context.finished = true;
}

void DeclineProcessor::Process(QueryContext& context) const {
  if (!context.outcome.covered()) return;
  context.outcome.answered_by = AnsweredBy::kDeclined;
  context.result.status = QueryStatus::kDeclined;
  context.finished = true;
}

void HistoryRecordProcessor::Process(QueryContext& context) const {
  // Only queries the AS-SIMPLE stages answered (Algorithm 2 lines 6-8):
  // not underflows, and not covered queries, which got a virtual answer or
  // a refusal. Whether M(q) exists says nothing here — the cover stage
  // computes it for queries it may then cover.
  if (context.match_count == 0 || context.outcome.covered()) return;
  context.outcome.answered_by = AnsweredBy::kSimple;
  if (context.result.docs.empty()) return;
  ASUP_TRACE_STAGE(obs::Stage::kHistoryRecord);
  WriterLock lock(history_->mutex);
  history_->Record(*context.query, context.result.DocIds());
}

}  // namespace asup
