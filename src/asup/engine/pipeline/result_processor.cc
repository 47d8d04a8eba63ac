#include "asup/engine/pipeline/result_processor.h"

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

RankedMatches QueryContext::TopMatches(size_t limit, size_t max_ids) const {
  return base->TopMatchesIn(*snapshot, *query, limit,
                            MatchOptions{carry_locals, max_ids});
}

size_t QueryContext::MatchCount() const {
  return base->MatchCountIn(*snapshot, *query);
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
  std::vector<ScoredDoc>& docs = context.result.docs;
  if (docs.empty()) return;
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (const ScoredDoc& entry : docs) ids.push_back(entry.doc);
  docs = MatchingEngine::ScoreDocs(*context.snapshot, context.query->terms(),
                                   ids, *scorer_);
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
