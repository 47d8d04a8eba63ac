#include "asup/engine/parallel_service.h"

#include <atomic>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

std::vector<SearchResult> BatchExecutor::ExecuteConcurrent(
    SearchService& service, std::span<const KeywordQuery> queries) const {
  std::vector<SearchResult> results(queries.size());
  pool_->ParallelFor(queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = service.Search(queries[i]);
    }
  });
  return results;
}

std::vector<SearchResult> BatchExecutor::ExecuteDeterministic(
    PrefetchableService& service,
    std::span<const KeywordQuery> queries) const {
  // Deduplicate: a query repeated within the batch is prefetched once; its
  // later occurrences hit the engine's answer cache during the commit.
  std::unordered_map<std::string_view, size_t> slot_of;
  std::vector<size_t> slots(queries.size());
  std::vector<const KeywordQuery*> unique_queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] =
        slot_of.try_emplace(queries[i].canonical(), unique_queries.size());
    if (inserted) unique_queries.push_back(&queries[i]);
    slots[i] = it->second;
  }

  // Phase 1 (parallel, read-only): match every distinct uncached query
  // against the immutable index. A query skipped because its answer is
  // already cached is a prefetch hit — the batch pays nothing for it.
  std::vector<std::optional<QueryPrefetch>> prefetches(unique_queries.size());
  std::atomic<size_t> prefetch_hits{0};
  {
    ASUP_TRACE_STAGE(obs::Stage::kPrefetch);
    pool_->ParallelFor(unique_queries.size(), [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        if (!service.HasCachedAnswer(*unique_queries[j])) {
          prefetches[j] = service.PrefetchMatches(*unique_queries[j]);
        } else {
          prefetch_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  ASUP_METRIC_GAUGE_SET("asup_engine_batch_unique_queries",
                        unique_queries.size(),
                        "Distinct queries in the last deterministic batch");
  ASUP_METRIC_GAUGE_SET("asup_engine_batch_prefetch_hits",
                        prefetch_hits.load(std::memory_order_relaxed),
                        "Batch queries skipped via the answer cache");
  ASUP_METRIC_GAUGE_SET("asup_engine_pool_queue_depth", pool_->QueueDepth(),
                        "Thread-pool tasks awaiting execution");
  ASUP_METRIC_GAUGE_SET("asup_engine_pool_tasks_executed",
                        pool_->TasksExecuted(),
                        "Thread-pool tasks executed since startup");

  // Phase 2 (serial, in input order): run the stateful suppression phase.
  // State evolves exactly as in a serial loop, so answers are bitwise
  // identical to serial execution.
  std::vector<SearchResult> results(queries.size());
  {
    ASUP_TRACE_STAGE(obs::Stage::kCommit);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASUP_CHECK_LT(slots[i], prefetches.size());
      const std::optional<QueryPrefetch>& prefetch = prefetches[slots[i]];
      // A query skipped by the prefetch phase was answer-cached then. The
      // only way the cache can lose that entry before its commit is an
      // epoch migration (a publish landed and the engine moved to the new
      // snapshot), which is query-independent and deterministic — a serial
      // loop would migrate at the same point and recompute the query live,
      // which is exactly what Search does on the cache miss.
      const auto answer = [&] {
        return prefetch ? service.SearchPrefetched(queries[i], *prefetch)
                        : service.Search(queries[i]);
      };
      // A client-tagged query is framed as its client's tagging decorator
      // frames it in a per-client loop.
      results[i] = queries[i].client_id() != 0
                       ? FrameTaggedQuery(queries[i], answer)
                       : answer();
    }
  }
  return results;
}

}  // namespace asup
