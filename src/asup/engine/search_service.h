#ifndef ASUP_ENGINE_SEARCH_SERVICE_H_
#define ASUP_ENGINE_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "asup/engine/query.h"
#include "asup/obs/metrics.h"
#include "asup/text/document.h"
#include "asup/util/stopwatch.h"

namespace asup {

/// Outcome of a keyword query at the restrictive top-k interface
/// (Section 2.1 of the paper).
enum class QueryStatus {
  /// No document matched.
  kUnderflow,
  /// All matching documents were returned.
  kValid,
  /// More documents matched than were returned; the interface notifies the
  /// user of the overflow but does not reveal the match count.
  kOverflow,
  /// The interface refused to answer: either the client exhausted its
  /// query quota (Section 2.1's interface limits) or a decline-based
  /// defense rejected the query (Section 5.2's strawman).
  kDeclined,
};

/// One returned document with its (engine-internal) relevance score.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  friend bool operator==(const ScoredDoc& a, const ScoredDoc& b) {
    return a.doc == b.doc;
  }
};

/// Answer to a keyword query: at most k documents, ranked by descending
/// score (ties broken by ascending document id), plus the overflow /
/// underflow notification. This is *all* an external user — bona fide or
/// adversarial — observes.
struct SearchResult {
  QueryStatus status = QueryStatus::kUnderflow;
  std::vector<ScoredDoc> docs;

  /// Returns the ranked document ids.
  std::vector<DocId> DocIds() const;

  /// True if `doc` appears in the answer.
  bool Returned(DocId doc) const;
};

/// The public keyword-search interface.
///
/// `PlainSearchEngine` and every defended engine (`DefendedEngine`)
/// implement this interface, so adversaries and workloads run unchanged
/// against defended and undefended engines.
class SearchService {
 public:
  virtual ~SearchService() = default;

  /// Answers a keyword query. Deterministic: re-issuing the same query
  /// returns the same answer (paper Section 2.1).
  virtual SearchResult Search(const KeywordQuery& query) = 0;

  /// The interface's result limit k.
  virtual size_t k() const = 0;
};

/// Decorator that counts queries sent through it.
///
/// Models the per-user query-number limit of real interfaces and provides
/// the x-axis ("No. of Queries") of every suppression experiment. The
/// counter is atomic, so the decorator may wrap a thread-safe service and
/// be called from concurrent workers. (Internally-synchronized fields like
/// this carry no ASUP_GUARDED_BY — there is no mutex to name; see
/// DESIGN.md §14.)
class QueryCountingService : public SearchService {
 public:
  explicit QueryCountingService(SearchService& base) : base_(&base) {}

  SearchResult Search(const KeywordQuery& query) override {
    queries_issued_.fetch_add(1, std::memory_order_relaxed);
    ASUP_METRIC_COUNT("asup_engine_queries_total", 1);
    return base_->Search(query);
  }

  size_t k() const override { return base_->k(); }

  /// Queries issued since construction or the last Reset().
  uint64_t queries_issued() const {
    return queries_issued_.load(std::memory_order_relaxed);
  }

  void Reset() { queries_issued_.store(0, std::memory_order_relaxed); }

 private:
  SearchService* base_;
  std::atomic<uint64_t> queries_issued_{0};
};

/// Decorator that stamps a fixed client id onto every query it forwards
/// and emits the defense-observability events framing the query: a
/// kQueryIssued (+ per-term kQueryTerm) before the base engine runs and a
/// kAnswerServed after it returns. The inner engines (AS-SIMPLE/AS-ARBI,
/// caches) see the tagged query and attribute their own events to the
/// same client, so one decorator per client is the entire per-client
/// observability plumbing — the shape the multi-tenant front-end will
/// reuse (ROADMAP item 1). Stateless apart from the id; thread-safe iff
/// the wrapped service is.
class ClientTaggingService : public SearchService {
 public:
  ClientTaggingService(SearchService& base, uint64_t client_id)
      : base_(&base), client_id_(client_id) {}

  SearchResult Search(const KeywordQuery& query) override;

  size_t k() const override { return base_->k(); }

  uint64_t client_id() const { return client_id_; }

 private:
  SearchService* base_;
  uint64_t client_id_;
};

/// Decorator that accumulates wall-clock time spent answering queries
/// (Figure 15 reports defended/undefended response-time ratios).
///
/// Counters are atomic so concurrent callers never corrupt them; under
/// concurrency, total_nanos() sums the per-call latencies of all threads
/// (i.e. aggregate work, not elapsed wall time).
class TimingService : public SearchService {
 public:
  explicit TimingService(SearchService& base) : base_(&base) {}

  SearchResult Search(const KeywordQuery& query) override {
    Stopwatch watch;
    SearchResult result = base_->Search(query);
    const int64_t elapsed = watch.ElapsedNanos();
    total_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
    ASUP_METRIC_OBSERVE_NANOS("asup_engine_query_latency_ns", elapsed);
    return result;
  }

  size_t k() const override { return base_->k(); }

  int64_t total_nanos() const {
    return total_nanos_.load(std::memory_order_relaxed);
  }
  uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }

  /// Mean per-query latency in nanoseconds (0 if no queries).
  double MeanNanos() const {
    const uint64_t queries = this->queries();
    return queries == 0 ? 0.0
                        : static_cast<double>(total_nanos()) /
                              static_cast<double>(queries);
  }

  void Reset() {
    total_nanos_.store(0, std::memory_order_relaxed);
    queries_.store(0, std::memory_order_relaxed);
  }

 private:
  SearchService* base_;
  std::atomic<int64_t> total_nanos_{0};
  std::atomic<uint64_t> queries_{0};
};

}  // namespace asup

#endif  // ASUP_ENGINE_SEARCH_SERVICE_H_
