#include "asup/suppress/defended_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

namespace {

void EmitCacheHit(const KeywordQuery& query, const SearchResult& cached) {
  ASUP_EVENT_EMIT(kCacheHit, query.client_id(), query.hash(),
                  cached.docs.size(), 0);
}

}  // namespace

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               const AsSimpleConfig& config)
    : DefendedEngine(base, DefenseAlgorithm::kSimple,
                     AsArbiConfig{config}) {}

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               const AsArbiConfig& config)
    : DefendedEngine(base, DefenseAlgorithm::kArbi, config) {}

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               const AsDeclineConfig& config)
    : DefendedEngine(base, DefenseAlgorithm::kDecline, config) {}

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               DefenseAlgorithm defense,
                               const AsArbiConfig& config)
    : base_(&base),
      defense_(defense),
      config_(config),
      snapshot_(base.PinSnapshot()),
      segment_(std::max<size_t>(snapshot_->NumDocuments(), 1),
               config.simple.gamma),
      coin_(config.simple.secret_key),
      m_limit_(static_cast<size_t>(
          std::ceil(config.simple.gamma * static_cast<double>(base.k())))),
      returned_before_(snapshot_->NumDocuments()),
      history_(config.cover_size, config.cover_ratio) {
  // γ > 1 (checked again by the segment) implies |M(q)| may exceed k, which
  // is what lets trimmed top-k documents be replaced by lower-ranked ones.
  ASUP_CHECK_LE(base.k(), m_limit_);
  if (defense != DefenseAlgorithm::kSimple) {
    // Algorithm 2's trigger runs on the count alone; only a query it does
    // not cover reaches the hiding stages.
    chain_.Add(std::make_unique<MatchCountProcessor>())
        .Add(std::make_unique<SelSizeNoteProcessor>())
        .Add(std::make_unique<UnderflowGuardProcessor>())
        .Add(std::make_unique<CoverProcessor>(history_, counters_));
    if (defense == DefenseAlgorithm::kArbi) {
      chain_.Add(std::make_unique<VirtualAnswerProcessor>(
          history_, returned_before_, counters_));
    } else {
      chain_.Add(std::make_unique<DeclineProcessor>(counters_));
    }
  }
  chain_.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<SuppressGuardProcessor>())
      .Add(std::make_unique<HideProcessor>(returned_before_, coin_, counters_))
      .Add(std::make_unique<TrimProcessor>(counters_))
      .Add(std::make_unique<EmulatedStatusProcessor>());
  if (defense != DefenseAlgorithm::kSimple) {
    chain_.Add(std::make_unique<HistoryRecordProcessor>(history_, counters_));
  }
  chain_.Add(std::make_unique<DefenseRecordProcessor>());
}

DefendedStats DefendedEngine::stats() const {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  DefendedStats snapshot;
  const uint64_t fast_hits = load(counters_.fast_hits);
  snapshot.queries_processed = fast_hits + load(counters_.locked_queries);
  snapshot.cache_hits = fast_hits + load(counters_.locked_hits);
  snapshot.docs_hidden = load(counters_.docs_hidden);
  snapshot.docs_trimmed = load(counters_.docs_trimmed);
  snapshot.epoch_migrations = load(counters_.epoch_migrations);
  snapshot.virtual_answers = load(counters_.virtual_answers);
  snapshot.declined = load(counters_.declined);
  snapshot.simple_answers = load(counters_.simple_answers);
  snapshot.trigger_evaluations = load(counters_.trigger_evaluations);
  return snapshot;
}

uint64_t DefendedEngine::StateEpoch() const {
  ReaderLock lock(epoch_mutex_);
  return snapshot_->epoch();
}

void DefendedEngine::MigrateToCurrentEpoch() {
  MigrateTo(base_->PinSnapshot());
}

size_t DefendedEngine::NumActivatedDocs() const {
  ReaderLock lock(epoch_mutex_);
  return returned_before_.Count();
}

bool DefendedEngine::IsActivated(DocId doc) const {
  ReaderLock lock(epoch_mutex_);
  if (!snapshot_->Contains(doc)) return false;
  return returned_before_.Test(snapshot_->LocalOf(doc));
}

QueryPrefetch DefendedEngine::PrefetchMatches(
    const KeywordQuery& query) const {
  QueryPrefetch prefetch;
  // M(q) = the min(|q|, γ·k) highest-ranked matching documents — a pure
  // function of one epoch's immutable index, never of Θ_R. The pinned
  // snapshot rides along so the commit phase can tell whether the epoch
  // moved in between.
  prefetch.snapshot = base_->PinSnapshot();
  prefetch.ranked = base_->TopMatchesIn(*prefetch.snapshot, query, m_limit_);
  if (defense_ != DefenseAlgorithm::kSimple &&
      prefetch.ranked.total_matches > 0 &&
      history_.TriggerPlausible(prefetch.ranked.total_matches, base_->k())) {
    // Same snapshot as the ranked matches — a prefetch is one epoch's view.
    prefetch.match_ids = base_->MatchIdsIn(*prefetch.snapshot, query);
    prefetch.has_match_ids = true;
  }
  return prefetch;
}

bool DefendedEngine::HasCachedAnswer(const KeywordQuery& query) const {
  return config_.simple.cache_answers &&
         answer_cache_.Contains(query.hash(), query.canonical(),
                                base_->CurrentEpoch());
}

SearchResult DefendedEngine::Search(const KeywordQuery& query) {
  return SearchImpl(query, nullptr);
}

SearchResult DefendedEngine::SearchPrefetched(const KeywordQuery& query,
                                              const QueryPrefetch& prefetch) {
  return SearchImpl(query, &prefetch);
}

SearchResult DefendedEngine::SearchImpl(const KeywordQuery& query,
                                        const QueryPrefetch* prefetch) {
  // A repeat computed in the base's current epoch is that epoch's one
  // answer: serve it before any engine lock. An entry from an older epoch
  // never matches the tag, so it cannot replay after a publish.
  if (config_.simple.cache_answers) {
    SearchResult cached;
    if (answer_cache_.Lookup(query.hash(), query.canonical(),
                             base_->CurrentEpoch(), &cached)) {
      counters_.fast_hits.fetch_add(1, std::memory_order_relaxed);
      EmitCacheHit(query, cached);
      return cached;
    }
  }
  counters_.locked_queries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      ReaderLock lock(epoch_mutex_);
      if (snapshot_->epoch() == base_->CurrentEpoch()) {
        return SearchStateLocked(query, prefetch);
      }
    }
    // The corpus moved ahead of the state: migrate, then re-check. The loop
    // terminates in practice because epochs advance only by explicit
    // CorpusManager::Apply calls, far rarer than queries.
    MigrateTo(base_->PinSnapshot());
  }
}

SearchResult DefendedEngine::SearchStateLocked(const KeywordQuery& query,
                                               const QueryPrefetch* prefetch) {
  const bool cache = config_.simple.cache_answers;
  if (cache) {
    SearchResult cached;
    if (answer_cache_.LookupOrClaim(query.canonical(), &cached) ==
        AnswerCache::Claim::kHit) {
      counters_.locked_hits.fetch_add(1, std::memory_order_relaxed);
      EmitCacheHit(query, cached);
      return cached;
    }
  }

  // A prefetch computed against a different epoch than the one this commit
  // pinned is stale: its M(q) and match ids reflect the wrong index.
  // Discard it and recompute live — correctness first, the parallel win
  // second.
  const bool prefetch_usable =
      prefetch != nullptr &&
      (prefetch->snapshot == nullptr ||
       prefetch->snapshot->epoch() == snapshot_->epoch());

  QueryContext context;
  context.query = &query;
  context.base = base_;
  context.snapshot = snapshot_.get();
  context.k = base_->k();
  context.match_limit = m_limit_;
  context.prefetch = prefetch_usable ? prefetch : nullptr;
  context.trace_match = true;
  context.segment = &segment_;
  SearchResult result;
  try {
    chain_.Run(context);
    result = std::move(context.result);
  } catch (...) {
    if (cache) answer_cache_.Abandon(query.canonical());
    throw;
  }
  if (cache) {
    answer_cache_.Publish(query.canonical(), snapshot_->epoch(), result);
  }
  return result;
}

void DefendedEngine::MigrateTo(const SnapshotHandle& target) {
  WriterLock lock(epoch_mutex_);
  // Raced with another migrating query: the state may already be at (or
  // past) the epoch this caller saw.
  if (target->epoch() <= snapshot_->epoch()) return;
  ASUP_TRACE_STAGE(obs::Stage::kEpochMigrate);
  const CorpusSnapshot& from = *snapshot_;
  const CorpusSnapshot& to = *target;

  // Θ_R remap: dense local ids are epoch-specific, so every activated bit
  // is carried over by universe DocId. Documents deleted by the delta drop
  // out of Θ_R — they can never be returned again, and keeping them would
  // skew |Θ_R|-based accounting.
  AtomicBitmap migrated(to.NumDocuments());
  uint64_t dropped = 0;
  const size_t old_docs = from.NumDocuments();
  for (size_t local = 0; local < old_docs; ++local) {
    if (!returned_before_.Test(local)) continue;
    const DocId id = from.LocalToId(static_cast<uint32_t>(local));
    if (to.Contains(id)) {
      migrated.Set(to.LocalOf(id));
    } else {
      ++dropped;
    }
  }
  returned_before_ = std::move(migrated);

  // μ recompute: the corpus size may have crossed a segment boundary γ^i,
  // in which case the new epoch suppresses exactly like a freshly deployed
  // defense over the new corpus (paper §4: μ depends only on n and γ).
  segment_ = IndistinguishableSegment(std::max<size_t>(to.NumDocuments(), 1),
                                      config_.simple.gamma);

  // History compaction: a virtual answer may never resurrect a deleted
  // document. The mirrors may shrink here — safe because the exclusive
  // epoch lock has quiesced every prescreen reader.
  if (defense_ != DefenseAlgorithm::kSimple) {
    WriterLock history_lock(history_.mutex);
    history_.CompactTo(to);
  }

  // The per-epoch determinism contract: answers computed under the old μ,
  // Θ_R and history must not replay in the new epoch.
  answer_cache_.Clear();

  snapshot_ = target;
  counters_.epoch_migrations.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_epoch_migrations_total", 1);
  ASUP_TRACE_NOTE("epoch_thetar_dropped", dropped);
  ASUP_EVENT_EMIT(kEpochMigration, 0, 0, target->epoch(), dropped);
}

}  // namespace asup
