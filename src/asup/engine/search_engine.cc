#include "asup/engine/search_engine.h"

#include <algorithm>
#include <limits>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

namespace {

/// Number of shards in the epoch's shard list: its sharded view when it
/// has one, else its single index as shard 0 of 1.
size_t NumShards(const CorpusSnapshot& snapshot) {
  return snapshot.has_sharded() ? snapshot.sharded().NumShards() : 1;
}

/// Shard `s` of the epoch's shard list.
const InvertedIndex& ShardAt(const CorpusSnapshot& snapshot, size_t s) {
  return snapshot.has_sharded() ? snapshot.sharded().Shard(s)
                                : snapshot.index();
}

/// Corpus-wide document frequency of `term` in this epoch. Both views carry
/// the same global statistics; the single index answers with one lookup
/// instead of one per shard.
size_t GlobalDf(const CorpusSnapshot& snapshot, TermId term) {
  return snapshot.has_index() ? snapshot.index().DocumentFrequency(term)
                              : snapshot.sharded().DocumentFrequency(term);
}

/// Corpus-wide scoring inputs of `terms` for `scorer` in this epoch.
ScoringContext GlobalContext(const CorpusSnapshot& snapshot,
                             std::span<const TermId> terms,
                             const ScoringFunction& scorer) {
  return snapshot.has_index()
             ? MakeScoringContext(snapshot.index(), terms, scorer)
             : MakeScoringContext(snapshot.sharded(), terms, scorer);
}

/// Upper bound on the postings a query walks: the rarest child bounds an
/// And, an Or walks every child, a Not walks the whole id range. `df(term)`
/// is a term's corpus-wide document frequency.
template <typename DfOf>
size_t EstimatedPostings(const QueryNode& node, size_t num_documents,
                         const DfOf& df) {
  switch (node.kind()) {
    case QueryNode::Kind::kTerm:
      return df(node.term());
    case QueryNode::Kind::kAnd: {
      size_t least = std::numeric_limits<size_t>::max();
      for (const QueryNode& child : node.children()) {
        least = std::min(least, EstimatedPostings(child, num_documents, df));
      }
      return least;
    }
    case QueryNode::Kind::kOr: {
      size_t total = 0;
      for (const QueryNode& child : node.children()) {
        const size_t cost = EstimatedPostings(child, num_documents, df);
        total = cost > std::numeric_limits<size_t>::max() - total
                    ? std::numeric_limits<size_t>::max()
                    : total + cost;
      }
      return total;
    }
    case QueryNode::Kind::kNot:
      return num_documents;
    case QueryNode::Kind::kEmpty:
      return 0;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

/// True when a query over `snapshot` scatters to `pool`: a pool is
/// attached, the epoch has more than one shard, and the query's estimated
/// postings reach kFanOutMinPostings. Otherwise every shard runs inline on
/// the calling thread.
template <typename DfOf>
bool FansOut(const ThreadPool* pool, const CorpusSnapshot& snapshot,
             const QueryNode& node, const DfOf& df) {
  return pool != nullptr && NumShards(snapshot) > 1 &&
         EstimatedPostings(node, snapshot.NumDocuments(), df) >=
             kFanOutMinPostings;
}

/// Bounded top-`limit` selection under RankBefore: a max-heap whose front
/// is the worst document kept, so each candidate costs one comparison
/// unless it displaces that document. Because RankBefore is a strict total
/// order, the kept set is the unique top-`limit` of everything pushed, in
/// any push order.
class TopK {
 public:
  explicit TopK(size_t limit) : limit_(limit) {}

  void Push(const ScoredDoc& doc) {
    if (docs_.size() < limit_) {
      docs_.push_back(doc);
      std::push_heap(docs_.begin(), docs_.end(), RankBefore);
    } else if (limit_ > 0 && RankBefore(doc, docs_.front())) {
      std::pop_heap(docs_.begin(), docs_.end(), RankBefore);
      docs_.back() = doc;
      std::push_heap(docs_.begin(), docs_.end(), RankBefore);
    }
  }

  /// The kept documents in RankBefore order.
  std::vector<ScoredDoc> TakeSorted() {
    std::sort_heap(docs_.begin(), docs_.end(), RankBefore);
    return std::move(docs_);
  }

 private:
  size_t limit_;
  std::vector<ScoredDoc> docs_;
};

/// The per-shard body: walks `node` on `shard` once, scores each match
/// against the global `context` as it passes and offers it to `top`.
/// Returns the shard's match count; with `limit` 0 it only counts.
size_t StreamShard(const InvertedIndex& shard, const QueryNode& node,
                   std::span<const TermId> score_terms,
                   const ScoringContext& context,
                   const ScoringFunction& scorer, size_t limit, TopK& top) {
  if (limit == 0) return ExecuteCount(shard, node);
  size_t matches = 0;
  ForEachMatch(shard, node, score_terms,
               [&](uint32_t local, std::span<const uint32_t> freqs) {
                 ++matches;
                 const Document& doc = shard.DocAt(local);
                 top.Push({doc.id(),
                           scorer.ScoreMatch(
                               context, static_cast<double>(doc.length()),
                               freqs)});
               });
  return matches;
}

/// Appends the ids of every document of `shard` matching `node`,
/// ascending, to `ids`.
void AppendMatchIds(const InvertedIndex& shard, const QueryNode& node,
                    std::vector<DocId>& ids) {
  ForEachMatch(shard, node, {},
               [&](uint32_t local, std::span<const uint32_t>) {
                 ids.push_back(shard.LocalToId(local));
               });
}

}  // namespace

bool RankBefore(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

SearchResult MatchingEngine::Search(const KeywordQuery& query) {
  // One pin for the whole query: the answer is computed against a single
  // epoch even if a publish lands mid-query.
  const SnapshotHandle snapshot = PinSnapshot();
  QueryContext context;
  context.query = &query;
  context.base = this;
  context.snapshot = snapshot.get();
  context.k = k();
  context.match_limit = k();
  InterfaceProcessorChain().Run(context);
  return std::move(context.result);
}

RankedMatches MatchingEngine::TopMatchesIn(const CorpusSnapshot& snapshot,
                                           const KeywordQuery& query,
                                           size_t limit) const {
  if (query.terms().empty()) return {};  // unknown word or empty query
  return TopMatchesNodeIn(snapshot, QueryNode::FromKeywords(query),
                          query.terms(), limit);
}

size_t MatchingEngine::MatchCountIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query) const {
  if (query.terms().empty()) return 0;
  return MatchCountNodeIn(snapshot, QueryNode::FromKeywords(query));
}

std::vector<DocId> MatchingEngine::MatchIdsIn(const CorpusSnapshot& snapshot,
                                              const KeywordQuery& query)
    const {
  if (query.terms().empty()) return {};
  return MatchIdsNodeIn(snapshot, QueryNode::FromKeywords(query));
}

MatchingEngine::MatchingEngine(const InvertedIndex& index, size_t k,
                               std::unique_ptr<ScoringFunction> scorer)
    : MatchingEngine(nullptr, CorpusSnapshot::Borrow(index), k, nullptr,
                     std::move(scorer)) {}

MatchingEngine::MatchingEngine(const ShardedInvertedIndex& index, size_t k,
                               ThreadPool* pool,
                               std::unique_ptr<ScoringFunction> scorer)
    : MatchingEngine(nullptr, CorpusSnapshot::Borrow(index), k, pool,
                     std::move(scorer)) {}

MatchingEngine::MatchingEngine(const CorpusManager& manager, size_t k,
                               ThreadPool* pool,
                               std::unique_ptr<ScoringFunction> scorer)
    : MatchingEngine(&manager, nullptr, k, pool, std::move(scorer)) {}

MatchingEngine::MatchingEngine(const CorpusManager* manager,
                               SnapshotHandle static_snapshot, size_t k,
                               ThreadPool* pool,
                               std::unique_ptr<ScoringFunction> scorer)
    : manager_(manager),
      static_snapshot_(std::move(static_snapshot)),
      k_(k),
      pool_(pool),
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {}

void MatchingEngine::ForEachShard(
    size_t shards, const std::function<void(size_t)>& body) const {
  ASUP_METRIC_COUNT("asup_shard_fanout_total", shards,
                    "Per-shard match tasks fanned out");
  pool_->ParallelFor(shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) body(s);
  });
}

RankedMatches MatchingEngine::TopMatchesNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node,
    std::span<const TermId> score_terms, size_t limit) const {
  const ScoringContext context =
      GlobalContext(snapshot, score_terms, *scorer_);
  // The fan-out estimate reads the dfs the context already holds; only a
  // tree term outside `score_terms` is looked up again.
  const auto df = [&](TermId term) {
    for (size_t i = 0; i < score_terms.size(); ++i) {
      if (score_terms[i] == term) return context.dfs[i];
    }
    return GlobalDf(snapshot, term);
  };
  const size_t shards = NumShards(snapshot);
  RankedMatches out;
  TopK top(limit);
  if (!FansOut(pool_, snapshot, node, df)) {
    // Inline: every shard streams into one heap on the calling thread.
    for (size_t s = 0; s < shards; ++s) {
      out.total_matches += StreamShard(ShardAt(snapshot, s), node,
                                       score_terms, context, *scorer_,
                                       limit, top);
    }
    out.docs = top.TakeSorted();
    return out;
  }

  // Scatter: each shard compiles the same query tree against its own
  // document range (Not anti-joins each shard's local range; shards
  // partition the corpus, so the per-shard complements union to the
  // global complement) and keeps its local top-`limit` — a superset of the
  // shard's contribution to the global top-`limit`. Slots are
  // preallocated, so the phase is deterministic under any scheduling.
  std::vector<RankedMatches> slots(shards);
  ForEachShard(shards, [&](size_t s) {
    // Attributes the span to the caller's trace when this chunk runs on
    // the issuing thread; always feeds the shard_match latency histogram.
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    TopK shard_top(limit);
    slots[s].total_matches =
        StreamShard(ShardAt(snapshot, s), node, score_terms, context,
                    *scorer_, limit, shard_top);
    slots[s].docs = shard_top.TakeSorted();
  });

  // Gather: exact global merge. RankBefore is a strict total order over
  // distinct document ids, so the top-`limit` of the concatenated
  // candidates is unique — bitwise the inline answer.
  {
    ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
    size_t candidates = 0;
    for (const RankedMatches& slot : slots) {
      out.total_matches += slot.total_matches;
      candidates += slot.docs.size();
      for (const ScoredDoc& doc : slot.docs) top.Push(doc);
    }
    ASUP_METRIC_OBSERVE_SIZE("asup_shard_merge_candidates", candidates);
    out.docs = top.TakeSorted();
    // Merge-ordering contract: a strict total order admits exactly one
    // sorted answer of at most `limit` documents, none repeated.
    ASUP_CHECK_LE(out.docs.size(), std::min(limit, candidates));
    ASUP_CONTRACTS_ONLY(for (size_t i = 1; i < out.docs.size(); ++i) {
      ASUP_CHECK(RankBefore(out.docs[i - 1], out.docs[i]));
    })
    ASUP_CHECK_LE(out.docs.size(), out.total_matches);
  }
  ASUP_TRACE_NOTE("shard_fanout", shards);
  return out;
}

size_t MatchingEngine::MatchCountNodeIn(const CorpusSnapshot& snapshot,
                                        const QueryNode& node) const {
  const size_t shards = NumShards(snapshot);
  size_t total = 0;
  if (!FansOut(pool_, snapshot, node,
               [&](TermId term) { return GlobalDf(snapshot, term); })) {
    for (size_t s = 0; s < shards; ++s) {
      total += ExecuteCount(ShardAt(snapshot, s), node);
    }
    return total;
  }
  std::vector<size_t> counts(shards, 0);
  ForEachShard(shards, [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    counts[s] = ExecuteCount(ShardAt(snapshot, s), node);
  });
  for (size_t count : counts) total += count;
  return total;
}

std::vector<DocId> MatchingEngine::MatchIdsNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node) const {
  const size_t shards = NumShards(snapshot);
  std::vector<DocId> ids;
  if (!FansOut(pool_, snapshot, node,
               [&](TermId term) { return GlobalDf(snapshot, term); })) {
    for (size_t s = 0; s < shards; ++s) {
      AppendMatchIds(ShardAt(snapshot, s), node, ids);
    }
    return ids;
  }
  std::vector<std::vector<DocId>> slots(shards);
  ForEachShard(shards, [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    AppendMatchIds(ShardAt(snapshot, s), node, slots[s]);
  });
  // Shards hold ascending, disjoint DocId ranges; concatenating in shard
  // order is the one-shard ascending id list.
  ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
  size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  ids.reserve(total);
  for (const auto& slot : slots) {
    ids.insert(ids.end(), slot.begin(), slot.end());
  }
  ASUP_CONTRACTS_ONLY(
      ASUP_CHECK(std::is_sorted(ids.begin(), ids.end()));)
  return ids;
}

std::vector<ScoredDoc> MatchingEngine::ScoreDocs(
    const CorpusSnapshot& snapshot, std::span<const TermId> terms,
    std::span<const DocId> docs, const ScoringFunction& scorer) {
  const Corpus& corpus = snapshot.corpus();
  const ScoringContext context = GlobalContext(snapshot, terms, scorer);
  std::vector<ScoredDoc> scored;
  scored.reserve(docs.size());
  std::vector<uint32_t> freqs(terms.size(), 0);
  for (DocId id : docs) {
    const Document& doc = corpus.Get(id);
    for (size_t i = 0; i < terms.size(); ++i) {
      freqs[i] = doc.FrequencyOf(terms[i]);
    }
    scored.push_back(
        {id, scorer.ScoreMatch(context, static_cast<double>(doc.length()),
                               freqs)});
  }
  std::sort(scored.begin(), scored.end(), RankBefore);
  return scored;
}

}  // namespace asup
