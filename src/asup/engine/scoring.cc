#include "asup/engine/scoring.h"

#include <cmath>

namespace asup {

ScoringContext MakeScoringContext(const InvertedIndex& index,
                                  std::span<const TermId> terms,
                                  const ScoringFunction& scorer) {
  ScoringContext context;
  context.stats = &index.stats();
  context.dfs.reserve(terms.size());
  context.weights.reserve(terms.size());
  for (TermId term : terms) {
    context.dfs.push_back(index.DocumentFrequency(term));
    context.weights.push_back(
        scorer.TermWeight(*context.stats, context.dfs.back()));
  }
  return context;
}

double ScoringFunction::Score(const InvertedIndex& index,
                              std::span<const TermId> terms,
                              uint32_t local_doc,
                              std::span<const uint32_t> freqs) const {
  const ScoringContext context = MakeScoringContext(index, terms, *this);
  return ScoreMatch(context, static_cast<double>(index.LengthAt(local_doc)),
                    freqs);
}

double Bm25Scorer::TermWeight(const IndexStats& stats, size_t df) const {
  const double n = static_cast<double>(stats.num_documents);
  const double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

double TfIdfScorer::TermWeight(const IndexStats& stats, size_t df) const {
  if (df == 0) return 0.0;
  return std::log(static_cast<double>(stats.num_documents) /
                  static_cast<double>(df));
}

std::unique_ptr<ScoringFunction> MakeDefaultScorer() {
  return std::make_unique<Bm25Scorer>();
}

}  // namespace asup
