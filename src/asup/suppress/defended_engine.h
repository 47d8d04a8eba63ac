#ifndef ASUP_SUPPRESS_DEFENDED_ENGINE_H_
#define ASUP_SUPPRESS_DEFENDED_ENGINE_H_

#include <cstdint>
#include <iosfwd>

#include "asup/engine/answer_cache.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/search_service.h"
#include "asup/suppress/processors.h"
#include "asup/suppress/segment.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"
#include "asup/util/hash.h"

namespace asup {

/// Configuration of AS-SIMPLE (paper Algorithm 1).
struct AsSimpleConfig {
  /// Obfuscation factor γ > 1. Larger γ = more stringent suppression,
  /// lower utility (paper Theorems 4.1 / 4.2).
  double gamma = 2.0;

  /// Secret key for the deterministic per-edge coins. Must stay
  /// server-side: an adversary knowing the key could replay the coins.
  uint64_t secret_key = 0x517bd152a1c7d9e3ULL;

  /// Cache final answers per canonical query so that re-issuing a query
  /// returns the identical answer (the deterministic-processing requirement
  /// of Section 2.1). Under concurrency the cache also serializes duplicate
  /// in-flight queries, so "same query ⇒ same answer" holds regardless of
  /// interleaving. The one cache knob of every defense. Disable only for
  /// ablation measurements.
  bool cache_answers = true;
};

/// Configuration of AS-ARBI (paper Algorithm 2).
struct AsArbiConfig {
  /// Hiding parameters and the answer-cache knob.
  AsSimpleConfig simple;

  /// Cover size m: maximum number of historic answers that may virtually
  /// answer a new query. The paper's default is 5 (and reports little
  /// sensitivity in 1..10).
  size_t cover_size = 5;

  /// Cover ratio σ in (0, 1]: fraction of the new query's matches that must
  /// be covered. The paper's default is 1.0 (the most conservative value).
  double cover_ratio = 1.0;
};

/// Configuration of AS-DECLINE (Section 5.2): AS-ARBI's knobs, with a
/// covered query refused instead of answered virtually.
struct AsDeclineConfig : AsArbiConfig {};

/// Which of the paper's run-time defenses a DefendedEngine runs.
enum class DefenseAlgorithm { kSimple, kArbi, kDecline };

/// Counters exposed for tests and experiments. Fields a defense's chain
/// has no stage for stay zero.
struct DefendedStats {
  uint64_t queries_processed = 0;
  uint64_t cache_hits = 0;
  /// Documents hidden by the per-document edge removal (Algorithm 1
  /// line 9).
  uint64_t docs_hidden = 0;
  /// Documents trimmed by the final LHS-degree cut (line 14).
  uint64_t docs_trimmed = 0;
  /// Epoch migrations performed (corpus changed under the engine).
  uint64_t epoch_migrations = 0;
  /// Covered queries answered by virtual query processing (AS-ARBI).
  uint64_t virtual_answers = 0;
  /// Covered queries refused (AS-DECLINE).
  uint64_t declined = 0;
  /// Queries the hiding stages answered (AS-ARBI, AS-DECLINE).
  uint64_t simple_answers = 0;
  /// Queries for which the (cheap) cover trigger evaluation ran.
  uint64_t trigger_evaluations = 0;
};

/// The defended search engine: one of the paper's run-time defenses over a
/// MatchingEngine with any number of partitions; suppression always runs
/// post-merge on the one logical corpus the base presents.
///
/// All three defenses share one state: Θ_R (the documents returned so
/// far), the segment's μ/γ, the keyed coin, the deterministic answer
/// cache, and — for AS-ARBI and AS-DECLINE — the history of disclosed
/// answers. They differ only in their processor chain
/// (suppress/processors.h), i.e. in what a covered query gets:
///
///   AS-SIMPLE:  match → guard → hide → trim → emulated status →
///               record
///   AS-ARBI:    match count → underflow guard → cover → virtual →
///               match → guard → hide → trim → emulated status →
///               history → record
///   AS-DECLINE: the AS-ARBI chain with `virtual` replaced by `decline`
///
/// AS-SIMPLE, per query q with match set Sel(q): M(q) = the min(|q|, γ·k)
/// highest-ranked matches; every document of M(q) already in Θ_R is hidden
/// with probability 1 − μ/γ (deterministic keyed coin per (query, document)
/// edge), fresh ones are kept and enter Θ_R; the survivors are trimmed to
/// min(|M(q)|/μ, k). AS-ARBI first checks whether at most m historic
/// answers cover a σ fraction of Sel(q); if so it answers from those
/// answers alone (nothing new is disclosed, which defeats the correlated
/// query attack of Section 5.1). AS-DECLINE refuses such a query — the
/// paper's stepping stone toward AS-ARBI, which costs bona fide recall.
///
/// Thread safety: every entry point may be called from concurrent workers.
/// Θ_R is an atomic bitmap, counters are atomic, the answer cache
/// serializes duplicate in-flight queries, and the history sits behind a
/// reader-writer lock (cover evaluation shared, recording exclusive) with
/// two lock-free pre-screen mirrors. The match phase is read-only against
/// the immutable index, so the engine implements PrefetchableService for
/// BatchExecutor's deterministic parallel mode (DESIGN.md §9).
///
/// Epoch model: the state is pinned to one corpus epoch. When the base's
/// current epoch moves ahead (a CorpusManager published a delta), the next
/// query migrates the state first — Θ_R is remapped through universe
/// document ids (deleted documents drop out), μ is recomputed from the new
/// corpus size, the history is compacted to surviving documents, and the
/// answer cache is cleared (the determinism guarantee of Section 2.1 is
/// *per epoch*). Queries take the shared side of the epoch lock, migration
/// the exclusive side; the lock order is epoch → history (DESIGN.md §13).
/// A repeated query is answered before any engine lock: cache entries are
/// tagged with the epoch they were computed in, and a lookup hits only
/// when that tag equals the base's current epoch.
class DefendedEngine : public PrefetchableService {
 public:
  /// Each constructor wraps `base` (borrowed; must outlive this engine)
  /// with the named defense and pins the base's current epoch.
  DefendedEngine(MatchingEngine& base, const AsSimpleConfig& config);
  DefendedEngine(MatchingEngine& base, const AsArbiConfig& config);
  DefendedEngine(MatchingEngine& base, const AsDeclineConfig& config);

  SearchResult Search(const KeywordQuery& query) override;

  /// Read-only match phase: M(q) plus — for the cover defenses, when the
  /// trigger is size-plausible — the full match-id list the cover
  /// evaluation needs. Independent of suppression state; pins the base's
  /// current epoch into the prefetch.
  QueryPrefetch PrefetchMatches(const KeywordQuery& query) const override;

  /// Stateful phase of Search, fed a prefetched match phase. A prefetch
  /// from a different epoch than the one the commit runs in is discarded
  /// and the match phase recomputed live.
  SearchResult SearchPrefetched(const KeywordQuery& query,
                                const QueryPrefetch& prefetch) override;

  bool HasCachedAnswer(const KeywordQuery& query) const override;

  size_t k() const override { return base_->k(); }

  DefenseAlgorithm defense() const { return defense_; }
  /// The configuration; AS-SIMPLE ignores the cover knobs.
  const AsArbiConfig& config() const { return config_; }

  /// The engine's AS-SIMPLE state (Θ_R, μ) is its own under every defense.
  const DefendedEngine& simple_engine() const { return *this; }

  /// Segment arithmetic of the state's epoch. Quiesced accessor: hands out
  /// a reference without the epoch lock, so the analysis is opted out.
  const IndistinguishableSegment& segment() const
      ASUP_NO_THREAD_SAFETY_ANALYSIS {
    return segment_;
  }

  /// The history of disclosed answers (empty under AS-SIMPLE). Quiesced
  /// accessor, like segment().
  const HistoryStore& history() const { return history_.UnlockedStore(); }

  /// Epoch the suppression state is currently pinned to.
  uint64_t StateEpoch() const ASUP_EXCLUDES(epoch_mutex_);

  /// Eagerly migrates the state to the base's current epoch (queries do
  /// this lazily on their own).
  void MigrateToCurrentEpoch() ASUP_EXCLUDES(epoch_mutex_, history_.mutex);

  /// Snapshot of the processing counters (consistent only when quiesced).
  DefendedStats stats() const;

  /// |Θ_R|: number of documents returned (or activated) so far.
  size_t NumActivatedDocs() const ASUP_EXCLUDES(epoch_mutex_);

  /// True if `doc` is in Θ_R.
  bool IsActivated(DocId doc) const ASUP_EXCLUDES(epoch_mutex_);

 private:
  // State persistence (suppress/state_io.h) reads and restores Θ_R, the
  // history and the answer cache directly.
  friend bool SaveDefenseState(const DefendedEngine&, std::ostream&);
  friend bool LoadDefenseState(DefendedEngine&, std::istream&);

  DefendedEngine(MatchingEngine& base, DefenseAlgorithm defense,
                 const AsArbiConfig& config);

  /// The lock-free cache hit, then the locked path; migrates lazily until
  /// the state epoch matches the base's current one.
  SearchResult SearchImpl(const KeywordQuery& query,
                          const QueryPrefetch* prefetch)
      ASUP_EXCLUDES(epoch_mutex_, history_.mutex);

  /// Cache claim + chain + publish against the state's pinned epoch.
  SearchResult SearchStateLocked(const KeywordQuery& query,
                                 const QueryPrefetch* prefetch)
      ASUP_REQUIRES_SHARED(epoch_mutex_) ASUP_EXCLUDES(history_.mutex);

  /// Takes the exclusive epoch lock and migrates the state to `target`:
  /// Θ_R remap, μ recompute, history compaction, cache clear.
  void MigrateTo(const SnapshotHandle& target)
      ASUP_EXCLUDES(epoch_mutex_, history_.mutex);

  // The lock-free hit path reads only the first members, through
  // counters_.cache_hits; they stay together so a repeat touches as few
  // cache lines of the engine as possible.
  MatchingEngine* base_;
  DefenseAlgorithm defense_;
  AsArbiConfig config_;
  /// Internally synchronized (sharded mutexes of its own). Entries carry
  /// their epoch, so the lock-free hit path needs no engine lock;
  /// epoch_mutex_ orders Clear() against the locked claim/publish path,
  /// not the cache's field access.
  AnswerCache answer_cache_;
  DefenseCounters counters_;
  /// Guards the epoch-pinned state below (snapshot_, segment_, Θ_R's
  /// indexing, the answer cache's validity): shared for query processing,
  /// exclusive for migration. The declared acquisition order (epoch before
  /// history) is the DAG of DESIGN.md §13; inversions are a compile error
  /// under -Wthread-safety-beta.
  mutable SharedMutex epoch_mutex_ ASUP_ACQUIRED_BEFORE(history_.mutex);
  /// The epoch the suppression state is expressed against.
  SnapshotHandle snapshot_ ASUP_GUARDED_BY(epoch_mutex_);
  IndistinguishableSegment segment_ ASUP_GUARDED_BY(epoch_mutex_);
  DeterministicCoin coin_;
  size_t m_limit_;  // γ·k, the size cap of M(q)
  /// Θ_R, indexed by dense local doc id. Internally synchronized
  /// (per-bit atomic test-and-set), so deliberately NOT ASUP_GUARDED_BY:
  /// the analysis would reject the legal TestAndSet under the shared side
  /// (any non-const call counts as a write). epoch_mutex_ guards only its
  /// *reassignment* during migration, which holds the exclusive side.
  AtomicBitmap returned_before_;
  /// The cover defenses' history; untouched by the AS-SIMPLE chain.
  DefenseHistory history_;
  /// history_.MaxPlausibleMatches(k) for the cover defenses, 0 for
  /// AS-SIMPLE: the id-sink bound of the walks that feed the cover search
  /// (the prefetch and the cover stage's live walk).
  size_t max_match_ids_;
  /// The defense's processor chain. Composed once at construction,
  /// immutable afterwards; run per query under the shared epoch lock.
  ProcessorChain chain_;
};

/// The paper's names for the three defenses: one engine, three chains.
using AsSimpleEngine = DefendedEngine;
using AsArbiEngine = DefendedEngine;
using AsDeclineEngine = DefendedEngine;
using AsSimpleStats = DefendedStats;
using AsArbiStats = DefendedStats;
using AsDeclineStats = DefendedStats;

}  // namespace asup

#endif  // ASUP_SUPPRESS_DEFENDED_ENGINE_H_
