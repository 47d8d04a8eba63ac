#include "asup/engine/pipeline/result_processor.h"

#include <algorithm>
#include <map>

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

RankedMatches QueryContext::TopMatches(size_t limit) const {
  if (node != nullptr) {
    const std::vector<TermId>& terms =
        score_terms != nullptr ? *score_terms : query->terms();
    return base->TopMatchesNodeIn(*snapshot, *node, terms, limit);
  }
  return base->TopMatchesIn(*snapshot, *query, limit);
}

size_t QueryContext::MatchCount() const {
  if (node != nullptr) return base->MatchCountNodeIn(*snapshot, *node);
  return base->MatchCountIn(*snapshot, *query);
}

std::vector<DocId> QueryContext::MatchIds() const {
  if (node != nullptr) return base->MatchIdsNodeIn(*snapshot, *node);
  return base->MatchIdsIn(*snapshot, *query);
}

ProcessorChain& ProcessorChain::Add(
    std::unique_ptr<ResultProcessor> processor) {
  ASUP_CHECK(processor != nullptr);
  stages_.push_back(std::move(processor));
  return *this;
}

void ProcessorChain::Run(QueryContext& context) const {
  ASUP_CHECK(context.query != nullptr);
  ASUP_CHECK(context.base != nullptr);
  ASUP_CHECK(context.snapshot != nullptr);
  for (const auto& stage : stages_) {
    if (context.finished && !stage->RunsWhenFinished()) continue;
    stage->Process(context);
  }
}

void MatchProcessor::Process(QueryContext& context) const {
  if (context.ranked != nullptr) return;
  if (context.prefetch != nullptr) {
    context.ranked = &context.prefetch->ranked;
  } else {
    if (context.trace_match) {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      context.owned_ranked = context.TopMatches(context.match_limit);
    } else {
      context.owned_ranked = context.TopMatches(context.match_limit);
    }
    context.ranked = &context.owned_ranked;
  }
  context.match_count = context.ranked->total_matches;
  context.have_match_count = true;
}

void MatchCountProcessor::Process(QueryContext& context) const {
  if (context.have_match_count) return;
  if (context.ranked != nullptr) {
    context.match_count = context.ranked->total_matches;
  } else if (context.prefetch != nullptr) {
    context.match_count = context.prefetch->ranked.total_matches;
  } else if (context.trace_match) {
    ASUP_TRACE_STAGE(obs::Stage::kMatch);
    context.match_count = context.MatchCount();
  } else {
    context.match_count = context.MatchCount();
  }
  context.have_match_count = true;
}

void InterfaceStatusProcessor::Process(QueryContext& context) const {
  ASUP_CHECK(context.ranked != nullptr);
  const RankedMatches& ranked = *context.ranked;
  if (ranked.total_matches == 0) {
    context.result.status = QueryStatus::kUnderflow;
  } else if (ranked.total_matches > context.k) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  if (context.ranked == &context.owned_ranked) {
    context.result.docs = std::move(context.owned_ranked.docs);
  } else {
    context.result.docs = ranked.docs;
  }
  context.finished = true;
}

void UnderflowGuardProcessor::Process(QueryContext& context) const {
  ASUP_CHECK(context.have_match_count);
  if (context.match_count != 0) return;
  context.result.status = QueryStatus::kUnderflow;
  context.finished = true;
}

void RescoreProcessor::Process(QueryContext& context) const {
  if (context.result.docs.empty()) return;
  // The scoring context needs a single-index view of the corpus; every
  // manager-built snapshot has one (borrowed sharded deployments rescore
  // via their own service instead).
  if (!context.snapshot->has_index()) return;
  const InvertedIndex& index = context.snapshot->index();
  const auto& terms = context.query->terms();
  const ScoringContext scoring = MakeScoringContext(index, terms);
  for (ScoredDoc& entry : context.result.docs) {
    const uint32_t local = index.LocalOf(entry.doc);
    const Document& doc = index.DocAt(local);
    MatchedDoc match;
    match.local_doc = local;
    match.freqs.reserve(terms.size());
    for (TermId term : terms) match.freqs.push_back(doc.FrequencyOf(term));
    entry.score = scorer_->ScoreMatch(
        scoring, static_cast<double>(doc.length()), match);
  }
  std::sort(context.result.docs.begin(), context.result.docs.end(),
            RankBefore);
}

void FacetCountProcessor::Process(QueryContext& context) const {
  if (context.result.docs.empty()) return;
  const Corpus& corpus = context.snapshot->corpus();
  std::map<uint64_t, size_t> buckets;
  for (const ScoredDoc& entry : context.result.docs) {
    const uint64_t length = corpus.Get(entry.doc).length();
    ++buckets[(length / bucket_width_) * bucket_width_];
  }
  context.facet_buckets.assign(buckets.begin(), buckets.end());
}

const ProcessorChain& InterfaceProcessorChain() {
  static const ProcessorChain* chain = [] {
    auto* built = new ProcessorChain();
    built->Add(std::make_unique<MatchProcessor>())
        .Add(std::make_unique<InterfaceStatusProcessor>());
    return built;
  }();
  return *chain;
}

}  // namespace asup
