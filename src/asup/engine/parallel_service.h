#ifndef ASUP_ENGINE_PARALLEL_SERVICE_H_
#define ASUP_ENGINE_PARALLEL_SERVICE_H_

#include <span>
#include <vector>

#include "asup/engine/search_engine.h"
#include "asup/engine/search_service.h"
#include "asup/util/thread_pool.h"

namespace asup {

/// The read-only, state-independent part of answering one query: everything
/// that only touches the immutable inverted index. Computed in parallel by
/// BatchExecutor's deterministic mode, then consumed by the serial commit.
struct QueryPrefetch {
  /// Top matches up to the engine-specific limit (k for the plain engine,
  /// γ·k for AS-SIMPLE) plus the total match count |Sel(q)|.
  RankedMatches ranked;

  /// All matching document ids, ascending. Only filled when the engine's
  /// commit phase can need them (AS-ARBI's cover trigger).
  std::vector<DocId> match_ids;
  bool has_match_ids = false;

  /// The epoch this prefetch was computed against. Null from legacy/static
  /// producers (treated as matching whatever epoch the commit runs in); a
  /// commit in a *different* epoch discards the prefetch and recomputes the
  /// match phase live against its own snapshot.
  SnapshotHandle snapshot;
};

/// A SearchService whose per-query work splits into a thread-safe read-only
/// match phase and a stateful commit phase.
///
/// The contract that makes BatchExecutor::ExecuteDeterministic bitwise
/// equivalent to a serial loop: PrefetchMatches must be a pure function of
/// the query and the immutable index (never of suppression state), and
/// SearchPrefetched(q, PrefetchMatches(q)) must equal Search(q) in every
/// engine state.
class PrefetchableService : public SearchService {
 public:
  /// Read-only match phase; safe to call concurrently.
  virtual QueryPrefetch PrefetchMatches(const KeywordQuery& query) const = 0;

  /// Stateful phase, fed a prefetch of the same query.
  virtual SearchResult SearchPrefetched(const KeywordQuery& query,
                                        const QueryPrefetch& prefetch) = 0;

  /// True if Search(query) would be answered from the deterministic answer
  /// cache, i.e. prefetching it would be wasted work. Never blocks.
  virtual bool HasCachedAnswer(const KeywordQuery& query) const = 0;
};

/// Fans a batch of queries across a thread pool. Results always come back
/// in input order.
class BatchExecutor {
 public:
  explicit BatchExecutor(ThreadPool& pool) : pool_(&pool) {}

  /// Free-running mode: every query is a pool task calling
  /// service.Search. The service must be internally thread-safe. Answers
  /// for a given query are deterministic (cache-backed), but the order in
  /// which *distinct fresh* queries update suppression state follows the
  /// scheduler, so state evolution can differ from a serial run.
  std::vector<SearchResult> ExecuteConcurrent(
      SearchService& service, std::span<const KeywordQuery> queries) const;

  /// Deterministic mode: the index-bound match phase of every distinct
  /// uncached query runs in parallel, then the stateful suppression phase
  /// commits serially in input order. Answers and final suppression state
  /// are bitwise identical to a serial loop over `queries`.
  std::vector<SearchResult> ExecuteDeterministic(
      PrefetchableService& service,
      std::span<const KeywordQuery> queries) const;

 private:
  ThreadPool* pool_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_PARALLEL_SERVICE_H_
