#ifndef ASUP_ENGINE_SEARCH_ENGINE_H_
#define ASUP_ENGINE_SEARCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "asup/engine/query_node.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/util/thread_pool.h"

namespace asup {

/// Privileged (server-side) view of a query's matches: the full ranking the
/// suppression layer needs — paper notation M(q) and |q| — which the public
/// interface never exposes.
struct RankedMatches {
  /// Top `limit` matching documents, ranked by descending score with ties
  /// broken by ascending document id.
  std::vector<ScoredDoc> docs;

  /// Total number of matching documents, |Sel(q)|.
  size_t total_matches = 0;

  /// Snapshot-local id of each entry of `docs`, in the same order. Filled
  /// only when the walk was asked to carry them
  /// (MatchOptions::carry_locals); empty otherwise.
  std::vector<uint32_t> locals;

  /// Ids of every matching document, ascending, when the walk was given an
  /// id bound (MatchOptions::max_ids) and |Sel(q)| stayed within it; empty
  /// otherwise.
  std::vector<DocId> ids;
};

/// Opt-in extras of one match walk, for the defended engines. The default
/// asks for nothing, and a walk asked for nothing runs the plain
/// interface's code, paying for neither extra.
struct MatchOptions {
  /// Carry each ranked document's snapshot-local id out of the walk
  /// (RankedMatches::locals), so Θ_R is tested without an id lookup.
  bool carry_locals = false;

  /// Bounded id sink: when nonzero, the walk also collects the id of every
  /// match into RankedMatches::ids while at most `max_ids` have passed, and
  /// discards them beyond it. The cover defenses set it to the largest
  /// |Sel(q)| their trigger can accept, so a query the trigger evaluates
  /// needs no second walk for its ids. Requires `carry_locals`: the
  /// defended walks are the only ones that need ids.
  size_t max_ids = 0;

  /// True when a walk with these options over `total_matches` matches
  /// filled RankedMatches::ids with all of them.
  bool HasIds(size_t total_matches) const {
    return max_ids != 0 && total_matches <= max_ids;
  }
};

/// The engine's deterministic ranking order: descending score, ties broken
/// by ascending doc id. A strict total order over any answer set (document
/// ids are unique), which is what makes top-k selection — and the N-shard
/// merge — exact rather than merely equivalent.
bool RankBefore(const ScoredDoc& a, const ScoredDoc& b);

/// Inline-or-scatter threshold: a query over a pooled N-partition epoch
/// fans out to the pool only when its estimated postings — the smallest
/// document frequency of an And, the summed one of an Or, the id range of
/// a Not — reach this many; below it the query walks the whole index
/// inline on the calling thread. Either side returns bitwise the same answer. A judgment, not a
/// derived crossover: bench_micro_engine BM_ShardedSearch{Inline,Pooled}
/// (EXPERIMENTS.md) can time the engine's scatter only at and above the
/// constant. There, on a shared 4-vCPU host, a 4-shard scatter at 32,768
/// postings ran 1.7x faster than inline in one sweep and 10–12% slower in
/// two others, one with every vCPU busy; at 65,536 and above, from 1.9x
/// faster to 13% slower. The gain depends on whether the host runs the
/// pool's threads at once. Whether a smaller value would pay is unmeasured.
inline constexpr size_t kFanOutMinPostings = 32768;

/// The enterprise search engine substrate: deterministic top-k keyword
/// search over *one logical corpus*, plus the privileged (server-side)
/// accessors — M(q), |Sel(q)|, the dense document-id mapping — that the
/// suppression layer builds on and the public interface never exposes.
/// Plays the role of Windows Search 4.0 in the paper's experiments: the
/// public `Search` obeys the restrictive interface model of Section 2.1,
/// and the defended engines are constructed *around* a MatchingEngine.
///
/// One engine over N >= 1 partitions of one index. Every query pins one
/// epoch (CorpusSnapshot): its one InvertedIndex and its partition count,
/// each partition a contiguous local-id range of that index. One body —
/// walk the iterator tree over an id range, score each match against the
/// index's ScoringContext as it passes, keep a bounded top-`limit` heap —
/// serves every partition count. A query walks the whole index inline on
/// the calling thread, unless a ThreadPool is attached, the epoch has more
/// than one partition and the query's estimated postings reach
/// kFanOutMinPostings; then the body fans out to the pool, one range and
/// one heap per partition, and the heaps merge. Every range scores against
/// the same statistics and RankBefore is a strict total order, so the
/// answer is bitwise the inline answer for any partition count, pool or
/// scheduling (DESIGN.md §12); ids, match counts and local ids are the one
/// index's own, so suppression state is byte-identical across deployments.
///
/// Epoch model: the engine borrows one static index (a never-changing
/// epoch-0 snapshot) or follows a CorpusManager's epoch chain. The
/// `*In(snapshot, ...)` forms answer against an explicit pinned epoch —
/// what the defended engines use, so one query reads one consistent corpus
/// even while a CorpusManager publishes successors concurrently. The
/// snapshot-free forms pin the current epoch per call.
class MatchingEngine : public SearchService {
 public:
  /// Over a static single `index` (borrowed; must outlive the engine).
  /// `k` is the interface's result limit; `scorer` defaults to BM25.
  MatchingEngine(const InvertedIndex& index, size_t k,
                 std::unique_ptr<ScoringFunction> scorer = nullptr);

  /// Over a static sharded `index` (borrowed): the same index, scattered
  /// over its NumShards() partitions. `pool` (borrowed, optional) runs the
  /// partitions of queries worth fanning out; null walks every query
  /// inline, with identical results.
  MatchingEngine(const ShardedInvertedIndex& index, size_t k,
                 ThreadPool* pool = nullptr,
                 std::unique_ptr<ScoringFunction> scorer = nullptr);

  /// Over `manager`'s epoch chain (borrowed): every query pins the epoch
  /// current when it starts, and may scatter over its partitions
  /// (CorpusManager::Options::num_shards).
  MatchingEngine(const CorpusManager& manager, size_t k,
                 ThreadPool* pool = nullptr,
                 std::unique_ptr<ScoringFunction> scorer = nullptr);

  /// Public interface: TopMatches(k) mapped to the restrictive
  /// underflow/valid/overflow answer model of Section 2.1. Pins one epoch
  /// for the whole query.
  SearchResult Search(const KeywordQuery& query) override;

  size_t k() const override { return k_; }

  /// Pins the engine's current epoch. Holding the handle keeps the epoch's
  /// corpus and index alive across concurrent publishes.
  SnapshotHandle PinSnapshot() const {
    return manager_ != nullptr ? manager_->Current() : static_snapshot_;
  }

  /// Epoch number of the current snapshot, without pinning a handle (the
  /// defended engines read it on every query). A static deployment is
  /// epoch 0 forever.
  uint64_t CurrentEpoch() const {
    return manager_ != nullptr ? manager_->CurrentEpoch() : 0;
  }

  // Boolean-tree entry points — the layer every match actually executes
  // through (engine/doc_iterator.h): `node` compiles into an iterator tree
  // per walk of an id range. `score_terms` are the scoring inputs (per-term frequencies
  // and document frequencies), in query-term order; node.CollectTerms() is
  // the natural choice for free-form trees. `snapshot` must come from this
  // engine's PinSnapshot (now or earlier).

  /// Server-side, against a pinned epoch: the top `limit` matches of a
  /// boolean query tree and the total match count, plus whatever extras
  /// `options` asks for — all from one walk of the posting lists.
  RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                 const QueryNode& node,
                                 std::span<const TermId> score_terms,
                                 size_t limit,
                                 const MatchOptions& options = {}) const;

  /// Server-side, against a pinned epoch: the tree's match count.
  size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                          const QueryNode& node) const;

  /// Server-side, against a pinned epoch: ids of all matching documents,
  /// ascending.
  std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                    const QueryNode& node) const;

  // Conjunctive KeywordQuery entry points — what the suppression layer,
  // attacks and workloads call. Each lowers the query to its And-of-terms
  // tree (QueryNode::FromKeywords) and executes it through the node entry
  // points above, so the conjunctive path and the boolean path are one
  // code path and stay bitwise identical.

  /// Server-side, against a pinned epoch: the top `limit` matches and the
  /// total match count — paper notation M(q) and |Sel(q)|.
  RankedMatches TopMatchesIn(const CorpusSnapshot& snapshot,
                             const KeywordQuery& query, size_t limit,
                             const MatchOptions& options = {}) const;

  /// Server-side, against a pinned epoch: |Sel(q)|.
  size_t MatchCountIn(const CorpusSnapshot& snapshot,
                      const KeywordQuery& query) const;

  /// Server-side, against a pinned epoch: ids of all matching documents,
  /// ascending.
  std::vector<DocId> MatchIdsIn(const CorpusSnapshot& snapshot,
                                const KeywordQuery& query) const;

  /// Server-side, against a pinned epoch: scores the given documents (each
  /// must match the query and be in the snapshot's corpus) with the
  /// engine's scorer and returns them ranked exactly as Search would. Used
  /// by AS-ARBI's virtual query processing to rank an answer composed from
  /// historic results.
  std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query,
                                    std::span<const DocId> docs) const {
    return ScoreDocs(snapshot, query.terms(), docs, *scorer_);
  }

  /// The one routine that scores given documents: each document's length
  /// and per-term frequencies come from `snapshot.corpus()`, the corpus
  /// statistics from the snapshot's index.
  /// Returns `docs` scored by `scorer` in RankBefore order. RankDocsIn and
  /// the pipeline's RescoreProcessor both rank through it.
  static std::vector<ScoredDoc> ScoreDocs(const CorpusSnapshot& snapshot,
                                          std::span<const TermId> terms,
                                          std::span<const DocId> docs,
                                          const ScoringFunction& scorer);

  // Snapshot-free conveniences: each call pins the current epoch. Across
  // two calls the epoch may change; epoch-sensitive callers (the
  // suppression engines) pin once and use the *In forms.

  RankedMatches TopMatches(const KeywordQuery& query, size_t limit) const {
    return TopMatchesIn(*PinSnapshot(), query, limit);
  }
  size_t MatchCount(const KeywordQuery& query) const {
    return MatchCountIn(*PinSnapshot(), query);
  }
  std::vector<DocId> MatchIds(const KeywordQuery& query) const {
    return MatchIdsIn(*PinSnapshot(), query);
  }
  std::vector<ScoredDoc> RankDocs(const KeywordQuery& query,
                                  std::span<const DocId> docs) const {
    return RankDocsIn(*PinSnapshot(), query, docs);
  }
  size_t NumDocuments() const { return PinSnapshot()->NumDocuments(); }
  uint32_t LocalOf(DocId id) const { return PinSnapshot()->LocalOf(id); }
  DocId LocalToId(uint32_t local) const {
    return PinSnapshot()->LocalToId(local);
  }

  /// The current epoch's corpus. The reference stays valid while that
  /// epoch is reachable — indefinitely for static deployments; until the
  /// epoch is superseded *and* every pinned handle dropped for managed
  /// ones. Epoch-sensitive callers should hold a PinSnapshot() handle.
  const Corpus& corpus() const { return PinSnapshot()->corpus(); }

 private:
  MatchingEngine(const CorpusManager* manager, SnapshotHandle static_snapshot,
                 size_t k, ThreadPool* pool,
                 std::unique_ptr<ScoringFunction> scorer);

  /// Runs `body(s)` for every partition s of a fan-out on the pool (the
  /// calling thread participates). `body` must only write to
  /// partition-`s`-owned slots.
  void ForEachShard(size_t shards,
                    const std::function<void(size_t)>& body) const;

  /// Calls `walk(scorer)` with the engine's scorer as its concrete type
  /// (resolved once, at construction): a library scorer is passed as its
  /// final class, so the walk's per-match ScoreMatch is a direct call.
  template <typename Walk>
  void WithConcreteScorer(Walk&& walk) const;

  /// TopMatchesNodeIn for one heap-entry type (with or without a carried
  /// local id) and one id sink type (none or bounded).
  template <typename Entry, typename Sink>
  RankedMatches WalkIn(const CorpusSnapshot& snapshot, const QueryNode& node,
                       std::span<const TermId> score_terms, size_t limit,
                       size_t max_ids) const;

  /// Exactly one of these is set: a managed epoch chain or a pinned
  /// epoch-0 snapshot borrowing the caller's static index.
  const CorpusManager* manager_;
  SnapshotHandle static_snapshot_;
  size_t k_;
  ThreadPool* pool_;
  std::unique_ptr<ScoringFunction> scorer_;
  /// scorer_'s concrete type, for WithConcreteScorer.
  enum class ScorerKind : uint8_t { kBm25, kTfIdf, kOther };
  ScorerKind scorer_kind_ = ScorerKind::kOther;
};

/// The single-index deployment: a MatchingEngine whose epochs have one
/// partition.
using PlainSearchEngine = MatchingEngine;

/// The scatter-gather deployment: a MatchingEngine over a sharded index or
/// a CorpusManager with num_shards partitions.
using ShardedSearchService = MatchingEngine;

}  // namespace asup

#endif  // ASUP_ENGINE_SEARCH_ENGINE_H_
