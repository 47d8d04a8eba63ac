#include "asup/engine/search_engine.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

namespace {

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

/// True when a query over `snapshot` whose estimated postings are
/// `estimate` scatters to `pool`: a pool is attached, the epoch has more
/// than one partition, and the estimate reaches kFanOutMinPostings.
/// Otherwise the query walks the whole index inline on the calling thread.
bool ScattersAt(const ThreadPool* pool, const CorpusSnapshot& snapshot,
                size_t estimate) {
  return pool != nullptr && snapshot.num_shards() > 1 &&
         estimate >= kFanOutMinPostings;
}

/// ScattersAt for `node`, estimating its postings only when a pool could
/// take the query.
bool FansOut(const ThreadPool* pool, const CorpusSnapshot& snapshot,
             const QueryNode& node) {
  const InvertedIndex& index = snapshot.index();
  return pool != nullptr &&
         ScattersAt(pool, snapshot,
                    EstimatedPostings(node, index.NumDocuments(),
                                      [&](TermId term) {
                                        return index.DocumentFrequency(term);
                                      }));
}

/// A heap entry that carries the document's snapshot-local id alongside
/// its rank key, for walks that opt into MatchOptions::carry_locals.
struct LocalScoredDoc {
  ScoredDoc scored;
  uint32_t local;
};

const ScoredDoc& RankKey(const ScoredDoc& entry) { return entry; }
const ScoredDoc& RankKey(const LocalScoredDoc& entry) { return entry.scored; }
uint32_t CarriedLocal(const ScoredDoc&) { return 0; }
uint32_t CarriedLocal(const LocalScoredDoc& entry) { return entry.local; }

template <typename Entry>
bool EntryBefore(const Entry& a, const Entry& b) {
  return RankBefore(RankKey(a), RankKey(b));
}

/// The heap entry for a document; `local` is dropped by entries that do
/// not carry it.
template <typename Entry>
Entry MakeEntry(const ScoredDoc& scored, uint32_t local) {
  if constexpr (std::is_same_v<Entry, LocalScoredDoc>) {
    return {scored, local};
  } else {
    (void)local;
    return scored;
  }
}

/// Moves sorted heap entries into `out`: documents, and their local ids
/// when the entries carry them.
void EmitSorted(std::vector<ScoredDoc> sorted, RankedMatches& out) {
  out.docs = std::move(sorted);
}
void EmitSorted(const std::vector<LocalScoredDoc>& sorted,
                RankedMatches& out) {
  out.docs.reserve(sorted.size());
  out.locals.reserve(sorted.size());
  for (const LocalScoredDoc& entry : sorted) {
    out.docs.push_back(entry.scored);
    out.locals.push_back(entry.local);
  }
}

/// Bounded top-`limit` selection under RankBefore: a max-heap whose front
/// is the worst document kept, so each candidate costs one comparison
/// unless it displaces that document. Because RankBefore is a strict total
/// order, the kept set is the unique top-`limit` of everything pushed, in
/// any push order.
template <typename Entry>
class TopK {
 public:
  /// `expected` bounds the number of candidates (the query's estimated
  /// postings), so the heap allocates once.
  TopK(size_t limit, size_t expected) : limit_(limit) {
    entries_.reserve(std::min(limit, expected));
  }

  /// Offers a document with its local id. The entry is built only when
  /// the document is kept, so a rejected candidate costs one comparison
  /// of ScoredDoc keys, whatever the entry type.
  void Push(const ScoredDoc& scored, uint32_t local) {
    if (entries_.size() < limit_) {
      entries_.push_back(MakeEntry<Entry>(scored, local));
      std::push_heap(entries_.begin(), entries_.end(), EntryBefore<Entry>);
    } else if (limit_ > 0 && RankBefore(scored, RankKey(entries_.front()))) {
      std::pop_heap(entries_.begin(), entries_.end(), EntryBefore<Entry>);
      entries_.back() = MakeEntry<Entry>(scored, local);
      std::push_heap(entries_.begin(), entries_.end(), EntryBefore<Entry>);
    }
  }

  /// The kept entries in RankBefore order.
  std::vector<Entry> TakeSorted() {
    std::sort_heap(entries_.begin(), entries_.end(), EntryBefore<Entry>);
    return std::move(entries_);
  }

 private:
  size_t limit_;
  std::vector<Entry> entries_;
};

/// The id sink of a walk that collects none: compiles away.
struct NoIds {
  static constexpr bool kActive = false;
  explicit NoIds(std::vector<DocId>*, size_t) {}
  void Offer(DocId) {}
};

/// The bounded id sink (MatchOptions::max_ids): appends each offered id
/// while at most `max` have been offered; past that it empties the list and
/// ignores the rest, since the caller has no use for a partial one.
struct BoundedIds {
  static constexpr bool kActive = true;
  BoundedIds(std::vector<DocId>* ids, size_t max) : ids_(ids), max_(max) {}
  void Offer(DocId id) {
    if (overflowed_) return;
    if (ids_->size() < max_) {
      ids_->push_back(id);
    } else {
      overflowed_ = true;
      ids_->clear();
    }
  }

 private:
  std::vector<DocId>* ids_;
  size_t max_;
  bool overflowed_ = false;
};

/// The walk of one id range: walks `node` over `range` of `index` once,
/// scores each match against `context` as it passes and offers it to
/// `top`, and its id to `ids`. Returns the range's match count; with
/// `limit` 0 and no id sink it only counts. `Scorer` is the scorer's
/// concrete type where the engine knows it (Bm25Scorer, TfIdfScorer), so
/// each match is scored through a direct call.
template <typename Entry, typename Sink, typename Scorer>
size_t StreamRange(const InvertedIndex& index, DocRange range,
                   const QueryNode& node, std::span<const TermId> score_terms,
                   const ScoringContext& context, const Scorer& scorer,
                   size_t limit, TopK<Entry>& top, Sink& ids) {
  if (limit == 0 && !Sink::kActive) return ExecuteCountIn(index, range, node);
  size_t matches = 0;
  ForEachMatchIn(index, range, node, score_terms,
                 [&](uint32_t local, std::span<const uint32_t> freqs) {
                   ++matches;
                   const DocId id = index.LocalToId(local);
                   const auto length =
                       static_cast<double>(index.LengthAt(local));
                   top.Push({id, scorer.ScoreMatch(context, length, freqs)},
                            local);
                   ids.Offer(id);
                 });
  return matches;
}

/// Appends the ids of every document in `range` of `index` matching
/// `node`, ascending, to `ids`.
void AppendMatchIds(const InvertedIndex& index, DocRange range,
                    const QueryNode& node, std::vector<DocId>& ids) {
  ForEachMatchIn(index, range, node, {},
                 [&](uint32_t local, std::span<const uint32_t>) {
                   ids.push_back(index.LocalToId(local));
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
                                           size_t limit,
                                           const MatchOptions& options)
    const {
  if (query.terms().empty()) return {};  // unknown word or empty query
  return TopMatchesNodeIn(snapshot, QueryNode::FromKeywords(query),
                          query.terms(), limit, options);
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
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {
  if (dynamic_cast<const Bm25Scorer*>(scorer_.get()) != nullptr) {
    scorer_kind_ = ScorerKind::kBm25;
  } else if (dynamic_cast<const TfIdfScorer*>(scorer_.get()) != nullptr) {
    scorer_kind_ = ScorerKind::kTfIdf;
  }
}

template <typename Walk>
void MatchingEngine::WithConcreteScorer(Walk&& walk) const {
  switch (scorer_kind_) {
    case ScorerKind::kBm25:
      walk(static_cast<const Bm25Scorer&>(*scorer_));
      return;
    case ScorerKind::kTfIdf:
      walk(static_cast<const TfIdfScorer&>(*scorer_));
      return;
    case ScorerKind::kOther:
      walk(*scorer_);
      return;
  }
}

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
    std::span<const TermId> score_terms, size_t limit,
    const MatchOptions& options) const {
  if (options.max_ids != 0) {
    ASUP_CHECK(options.carry_locals);
    return WalkIn<LocalScoredDoc, BoundedIds>(snapshot, node, score_terms,
                                              limit, options.max_ids);
  }
  if (options.carry_locals) {
    return WalkIn<LocalScoredDoc, NoIds>(snapshot, node, score_terms, limit,
                                         0);
  }
  return WalkIn<ScoredDoc, NoIds>(snapshot, node, score_terms, limit, 0);
}

template <typename Entry, typename Sink>
RankedMatches MatchingEngine::WalkIn(const CorpusSnapshot& snapshot,
                                     const QueryNode& node,
                                     std::span<const TermId> score_terms,
                                     size_t limit, size_t max_ids) const {
  const InvertedIndex& index = snapshot.index();
  const ScoringContext context =
      MakeScoringContext(index, score_terms, *scorer_);
  // The fan-out estimate reads the dfs the context already holds; only a
  // tree term outside `score_terms` is looked up again.
  const auto df = [&](TermId term) {
    for (size_t i = 0; i < score_terms.size(); ++i) {
      if (score_terms[i] == term) return context.dfs[i];
    }
    return index.DocumentFrequency(term);
  };
  const size_t estimate = EstimatedPostings(node, index.NumDocuments(), df);
  // No query matches more documents than the epoch holds.
  const size_t most = std::min(estimate, index.NumDocuments());
  RankedMatches out;
  TopK<Entry> top(limit, most);
  if (!ScattersAt(pool_, snapshot, estimate)) {
    // Inline: one walk of the whole index on the calling thread, into one
    // heap and one id sink.
    if constexpr (Sink::kActive) out.ids.reserve(std::min(max_ids, most));
    Sink ids(&out.ids, max_ids);
    WithConcreteScorer([&](const auto& scorer) {
      out.total_matches = StreamRange(index, index.AllDocs(), node,
                                      score_terms, context, scorer, limit,
                                      top, ids);
    });
    EmitSorted(top.TakeSorted(), out);
    return out;
  }

  // Scatter: each partition walks the same tree over its own id range
  // (a Not complements over the whole index, so each range keeps its own
  // share of the complement) and keeps its local top-`limit` — a superset
  // of the range's contribution to the global top-`limit` — and its own
  // bounded id list. Slots are preallocated, so the phase is deterministic
  // under any scheduling.
  struct Slot {
    size_t total_matches = 0;
    std::vector<Entry> top;
    std::vector<DocId> ids;
  };
  const size_t shards = snapshot.num_shards();
  std::vector<Slot> slots(shards);
  ForEachShard(shards, [&](size_t s) {
    // Attributes the span to the caller's trace when this chunk runs on
    // the issuing thread; always feeds the shard_match latency histogram.
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    const DocRange range = snapshot.Shard(s);
    TopK<Entry> shard_top(limit, std::min<size_t>(most, range.hi - range.lo));
    Sink shard_ids(&slots[s].ids, max_ids);
    WithConcreteScorer([&](const auto& scorer) {
      slots[s].total_matches =
          StreamRange(index, range, node, score_terms, context, scorer,
                      limit, shard_top, shard_ids);
    });
    slots[s].top = shard_top.TakeSorted();
  });

  // Gather: exact global merge. RankBefore is a strict total order over
  // distinct document ids, so the top-`limit` of the concatenated
  // candidates is unique — bitwise the inline answer. The id lists
  // concatenate in partition order (ascending, disjoint ranges) when the
  // total stayed within the bound.
  {
    ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
    size_t candidates = 0;
    for (const Slot& slot : slots) {
      out.total_matches += slot.total_matches;
      candidates += slot.top.size();
      for (const Entry& entry : slot.top) {
        top.Push(RankKey(entry), CarriedLocal(entry));
      }
    }
    if (Sink::kActive && out.total_matches <= max_ids) {
      out.ids.reserve(out.total_matches);
      for (const Slot& slot : slots) {
        out.ids.insert(out.ids.end(), slot.ids.begin(), slot.ids.end());
      }
      ASUP_CHECK_EQ(out.ids.size(), out.total_matches);
    }
    ASUP_METRIC_OBSERVE_SIZE("asup_shard_merge_candidates", candidates);
    EmitSorted(top.TakeSorted(), out);
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
  const InvertedIndex& index = snapshot.index();
  if (!FansOut(pool_, snapshot, node)) return ExecuteCount(index, node);
  const size_t shards = snapshot.num_shards();
  std::vector<size_t> counts(shards, 0);
  ForEachShard(shards, [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    counts[s] = ExecuteCountIn(index, snapshot.Shard(s), node);
  });
  size_t total = 0;
  for (size_t count : counts) total += count;
  return total;
}

std::vector<DocId> MatchingEngine::MatchIdsNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node) const {
  const InvertedIndex& index = snapshot.index();
  std::vector<DocId> ids;
  if (!FansOut(pool_, snapshot, node)) {
    AppendMatchIds(index, index.AllDocs(), node, ids);
    return ids;
  }
  const size_t shards = snapshot.num_shards();
  std::vector<std::vector<DocId>> slots(shards);
  ForEachShard(shards, [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    AppendMatchIds(index, snapshot.Shard(s), node, slots[s]);
  });
  // Partitions are ascending, disjoint id ranges; concatenating them in
  // order is the whole walk's ascending id list.
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
  const ScoringContext context =
      MakeScoringContext(snapshot.index(), terms, scorer);
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
