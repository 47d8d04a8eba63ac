#include "asup/engine/search_engine.h"

#include <algorithm>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

namespace {

/// The epoch's one shard when its shard list has exactly one — the single
/// index of an unsharded epoch, or shard 0 of a 1-shard view — else null.
const InvertedIndex* SoleShard(const CorpusSnapshot& snapshot) {
  if (!snapshot.has_sharded()) return &snapshot.index();
  const ShardedInvertedIndex& sharded = snapshot.sharded();
  return sharded.NumShards() == 1 ? &sharded.Shard(0) : nullptr;
}

/// Corpus-wide scoring inputs of `terms` in this epoch. Both views carry
/// the same global statistics; the single index answers each document
/// frequency with one lookup instead of one per shard.
ScoringContext GlobalContext(const CorpusSnapshot& snapshot,
                             std::span<const TermId> terms) {
  return snapshot.has_index() ? MakeScoringContext(snapshot.index(), terms)
                              : MakeScoringContext(snapshot.sharded(), terms);
}

/// Ids of every document of `shard` matching `node`, ascending.
std::vector<DocId> ShardMatchIds(const InvertedIndex& shard,
                                 const QueryNode& node) {
  const std::vector<uint32_t> locals = ExecuteLocals(shard, node);
  std::vector<DocId> ids;
  ids.reserve(locals.size());
  for (uint32_t local : locals) ids.push_back(shard.LocalToId(local));
  return ids;
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
  if (pool_ == nullptr) {
    for (size_t s = 0; s < shards; ++s) body(s);
    return;
  }
  pool_->ParallelFor(shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) body(s);
  });
}

RankedMatches MatchingEngine::ShardTopMatches(
    const InvertedIndex& shard, const QueryNode& node,
    std::span<const TermId> score_terms, const ScoringContext& context,
    size_t limit) const {
  RankedMatches out;
  const std::vector<MatchedDoc> matches =
      ExecuteMatch(shard, node, score_terms);
  out.total_matches = matches.size();
  out.docs.reserve(matches.size());
  for (const MatchedDoc& match : matches) {
    out.docs.push_back(
        {shard.LocalToId(match.local_doc),
         scorer_->ScoreMatch(
             context,
             static_cast<double>(shard.DocAt(match.local_doc).length()),
             match)});
  }
  if (limit < out.docs.size()) {
    std::nth_element(out.docs.begin(), out.docs.begin() + limit,
                     out.docs.end(), RankBefore);
    out.docs.resize(limit);
  }
  return out;
}

RankedMatches MatchingEngine::TopMatchesNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node,
    std::span<const TermId> score_terms, size_t limit) const {
  const ScoringContext context = GlobalContext(snapshot, score_terms);
  if (const InvertedIndex* shard = SoleShard(snapshot)) {
    RankedMatches out =
        ShardTopMatches(*shard, node, score_terms, context, limit);
    std::sort(out.docs.begin(), out.docs.end(), RankBefore);
    return out;
  }

  // Scatter: each shard compiles the same query tree against its own
  // document range (Not anti-joins each shard's local range; shards
  // partition the corpus, so the per-shard complements union to the
  // global complement) and keeps its local top-`limit` — a superset of the
  // shard's contribution to the global top-`limit`. Slots are
  // preallocated, so the phase is deterministic under any scheduling.
  const ShardedInvertedIndex& index = snapshot.sharded();
  std::vector<RankedMatches> slots(index.NumShards());
  ForEachShard(index.NumShards(), [&](size_t s) {
    // Attributes the span to the caller's trace when this chunk runs on
    // the issuing thread; always feeds the shard_match latency histogram.
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    slots[s] = ShardTopMatches(index.Shard(s), node, score_terms, context,
                               limit);
  });

  // Gather: exact global merge. RankBefore is a strict total order over
  // distinct document ids, so the top-`limit` of the concatenated
  // candidates is unique — bitwise the one-shard answer.
  RankedMatches out;
  {
    ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
    size_t candidates = 0;
    for (const RankedMatches& slot : slots) {
      out.total_matches += slot.total_matches;
      candidates += slot.docs.size();
    }
    std::vector<ScoredDoc>& merged = out.docs;
    merged.reserve(candidates);
    for (const RankedMatches& slot : slots) {
      merged.insert(merged.end(), slot.docs.begin(), slot.docs.end());
    }
    ASUP_METRIC_OBSERVE_SIZE("asup_shard_merge_candidates", candidates);
    if (limit < merged.size()) {
      std::nth_element(merged.begin(), merged.begin() + limit, merged.end(),
                       RankBefore);
      merged.resize(limit);
    }
    std::sort(merged.begin(), merged.end(), RankBefore);
    // Merge-ordering contract: a strict total order admits exactly one
    // sorted answer of at most `limit` documents, none repeated.
    ASUP_CHECK_LE(merged.size(), std::min(limit, candidates));
    ASUP_CONTRACTS_ONLY(for (size_t i = 1; i < merged.size(); ++i) {
      ASUP_CHECK(RankBefore(merged[i - 1], merged[i]));
    })
    ASUP_CHECK_LE(merged.size(), out.total_matches);
  }
  ASUP_TRACE_NOTE("shard_fanout", index.NumShards());
  return out;
}

size_t MatchingEngine::MatchCountNodeIn(const CorpusSnapshot& snapshot,
                                        const QueryNode& node) const {
  if (const InvertedIndex* shard = SoleShard(snapshot)) {
    return ExecuteCount(*shard, node);
  }
  const ShardedInvertedIndex& index = snapshot.sharded();
  std::vector<size_t> counts(index.NumShards(), 0);
  ForEachShard(index.NumShards(), [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    counts[s] = ExecuteCount(index.Shard(s), node);
  });
  size_t total = 0;
  for (size_t count : counts) total += count;
  return total;
}

std::vector<DocId> MatchingEngine::MatchIdsNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node) const {
  if (const InvertedIndex* shard = SoleShard(snapshot)) {
    return ShardMatchIds(*shard, node);
  }
  const ShardedInvertedIndex& index = snapshot.sharded();
  std::vector<std::vector<DocId>> slots(index.NumShards());
  ForEachShard(index.NumShards(), [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    slots[s] = ShardMatchIds(index.Shard(s), node);
  });
  // Shards hold ascending, disjoint DocId ranges; concatenating in shard
  // order is the one-shard ascending id list.
  ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
  size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  std::vector<DocId> ids;
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
  const ScoringContext context = GlobalContext(snapshot, terms);
  std::vector<ScoredDoc> scored;
  scored.reserve(docs.size());
  // Scorers read only `freqs`; local_doc stays unset.
  MatchedDoc match{};
  match.freqs.reserve(terms.size());
  for (DocId id : docs) {
    const Document& doc = corpus.Get(id);
    match.freqs.clear();
    for (TermId term : terms) match.freqs.push_back(doc.FrequencyOf(term));
    scored.push_back(
        {id, scorer.ScoreMatch(context, static_cast<double>(doc.length()),
                               match)});
  }
  std::sort(scored.begin(), scored.end(), RankBefore);
  return scored;
}

}  // namespace asup
