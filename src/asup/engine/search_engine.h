#ifndef ASUP_ENGINE_SEARCH_ENGINE_H_
#define ASUP_ENGINE_SEARCH_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "asup/engine/query_node.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/inverted_index.h"

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
};

/// The engine's deterministic ranking order: descending score, ties broken
/// by ascending doc id. A strict total order over any answer set (document
/// ids are unique), which is what makes top-k selection — and the sharded
/// engine's scatter-gather merge — exact rather than merely equivalent.
bool RankBefore(const ScoredDoc& a, const ScoredDoc& b);

/// Privileged (server-side) engine interface the suppression layer builds
/// on: deterministic conjunctive matching and ranking over *one logical
/// corpus*, plus the dense document-id mapping Θ_R and state persistence
/// require. Implemented by PlainSearchEngine (a single InvertedIndex) and
/// ShardedSearchService (scatter-gather over a ShardedInvertedIndex); the
/// AS-SIMPLE / AS-ARBI engines run unchanged on either, because both
/// present identical answers, match counts, and local-id assignments.
///
/// Epoch model: the engine resolves a `CorpusSnapshot` per query. The
/// `*In(snapshot, ...)` virtuals answer against an explicit pinned epoch —
/// what the suppression engines use, so one query reads one consistent
/// corpus even while a CorpusManager publishes successors concurrently.
/// The snapshot-free names are non-virtual conveniences that pin the
/// current epoch per call; they keep every pre-epoch caller (attacks,
/// workloads, evaluation) source compatible.
class MatchingEngine : public SearchService {
 public:
  /// Public interface: TopMatches(k) mapped to the restrictive
  /// underflow/valid/overflow answer model of Section 2.1. Pins one epoch
  /// for the whole query.
  SearchResult Search(const KeywordQuery& query) override;

  /// Pins the engine's current epoch. Wait-free; holding the handle keeps
  /// the epoch's corpus and indexes alive across concurrent publishes.
  virtual SnapshotHandle PinSnapshot() const = 0;

  /// Epoch number of the current snapshot (0 for static deployments).
  /// The defended engines read it on every query, so implementations
  /// answer it without pinning a handle.
  virtual uint64_t CurrentEpoch() const { return PinSnapshot()->epoch(); }

  // Boolean-tree entry points — the layer every match actually executes
  // through (engine/doc_iterator.h). Implementations compile `node` into
  // an iterator tree per index (per shard, for the sharded service).
  // `score_terms` are the scoring inputs (per-term frequencies and
  // document frequencies), in query-term order; node.CollectTerms() is the
  // natural choice for free-form trees.

  /// Server-side, against a pinned epoch: the top `limit` matches of a
  /// boolean query tree and the total match count. `snapshot` must come
  /// from this engine's PinSnapshot (now or earlier).
  virtual RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                         const QueryNode& node,
                                         std::span<const TermId> score_terms,
                                         size_t limit) const = 0;

  /// Server-side, against a pinned epoch: the tree's match count.
  virtual size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                                  const QueryNode& node) const = 0;

  /// Server-side, against a pinned epoch: ids of all matching documents,
  /// ascending.
  virtual std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                            const QueryNode& node) const = 0;

  // Conjunctive KeywordQuery entry points — what the suppression layer,
  // attacks and workloads call. Non-virtual: each lowers the query to its
  // And-of-terms tree (QueryNode::FromKeywords) and executes it through
  // the node virtuals above, so the conjunctive path and the boolean path
  // are one code path and stay bitwise identical.

  /// Server-side, against a pinned epoch: the top `limit` matches and the
  /// total match count — paper notation M(q) and |Sel(q)|.
  RankedMatches TopMatchesIn(const CorpusSnapshot& snapshot,
                             const KeywordQuery& query, size_t limit) const;

  /// Server-side, against a pinned epoch: |Sel(q)|.
  size_t MatchCountIn(const CorpusSnapshot& snapshot,
                      const KeywordQuery& query) const;

  /// Server-side, against a pinned epoch: ids of all matching documents,
  /// ascending.
  std::vector<DocId> MatchIdsIn(const CorpusSnapshot& snapshot,
                                const KeywordQuery& query) const;

  /// Server-side, against a pinned epoch: scores the given documents (each
  /// must match the query and be in the snapshot's corpus) and returns
  /// them ranked exactly as Search would. Used by AS-ARBI's virtual query
  /// processing to rank an answer composed from historic results.
  virtual std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                            const KeywordQuery& query,
                                            std::span<const DocId> docs)
      const = 0;

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
};

/// The undefended enterprise search engine substrate: deterministic
/// conjunctive keyword search with top-k truncation over an inverted index.
///
/// Plays the role of Windows Search 4.0 in the paper's experiments. The
/// public `Search` obeys the restrictive interface model of Section 2.1;
/// the suppression engines are constructed *around* a MatchingEngine and
/// use its privileged `TopMatches` / `MatchIds` accessors.
class PlainSearchEngine : public MatchingEngine {
 public:
  /// Builds an engine over a static `index` (borrowed; must outlive the
  /// engine) as a never-changing epoch-0 snapshot. `scorer` defaults to
  /// BM25. `k` is the interface's result limit.
  PlainSearchEngine(const InvertedIndex& index, size_t k,
                    std::unique_ptr<ScoringFunction> scorer = nullptr);

  /// Builds an engine over `manager`'s epoch chain (borrowed; must outlive
  /// the engine): every query pins the epoch current when it starts.
  PlainSearchEngine(const CorpusManager& manager, size_t k,
                    std::unique_ptr<ScoringFunction> scorer = nullptr);

  size_t k() const override { return k_; }

  SnapshotHandle PinSnapshot() const override {
    return manager_ != nullptr ? manager_->Current() : static_snapshot_;
  }
  /// A static deployment is epoch 0 forever.
  uint64_t CurrentEpoch() const override {
    return manager_ != nullptr ? manager_->CurrentEpoch() : 0;
  }

  RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                 const QueryNode& node,
                                 std::span<const TermId> score_terms,
                                 size_t limit) const override;

  size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                          const QueryNode& node) const override;

  std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                    const QueryNode& node) const override;

  std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query,
                                    std::span<const DocId> docs)
      const override;

  /// The current epoch's single index (lifetime caveat as corpus()).
  const InvertedIndex& index() const { return PinSnapshot()->index(); }
  const ScoringFunction& scorer() const { return *scorer_; }

 private:
  /// Exactly one of these is set: a managed epoch chain or a pinned
  /// epoch-0 snapshot borrowing the caller's static index.
  const CorpusManager* manager_ = nullptr;
  SnapshotHandle static_snapshot_;
  size_t k_;
  std::unique_ptr<ScoringFunction> scorer_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_SEARCH_ENGINE_H_
