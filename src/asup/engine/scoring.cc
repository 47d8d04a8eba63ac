#include "asup/engine/scoring.h"

#include <cmath>

namespace asup {

namespace {

template <typename Index>
ScoringContext ContextOf(const Index& index, std::span<const TermId> terms) {
  ScoringContext context;
  context.stats = &index.stats();
  context.dfs.reserve(terms.size());
  for (TermId term : terms) context.dfs.push_back(index.DocumentFrequency(term));
  return context;
}

}  // namespace

ScoringContext MakeScoringContext(const InvertedIndex& index,
                                  std::span<const TermId> terms) {
  return ContextOf(index, terms);
}

ScoringContext MakeScoringContext(const ShardedInvertedIndex& index,
                                  std::span<const TermId> terms) {
  return ContextOf(index, terms);
}

double ScoringFunction::Score(const InvertedIndex& index,
                              std::span<const TermId> terms,
                              const MatchedDoc& match) const {
  const ScoringContext context = MakeScoringContext(index, terms);
  return ScoreMatch(
      context, static_cast<double>(index.DocAt(match.local_doc).length()),
      match);
}

double Bm25Scorer::ScoreMatch(const ScoringContext& context, double doc_length,
                              const MatchedDoc& match) const {
  const IndexStats& stats = *context.stats;
  const double n = static_cast<double>(stats.num_documents);
  const double avg_len =
      stats.average_doc_length > 0.0 ? stats.average_doc_length : 1.0;
  double score = 0.0;
  for (size_t i = 0; i < context.dfs.size(); ++i) {
    const double df = static_cast<double>(context.dfs[i]);
    const double idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);
    const double tf = static_cast<double>(match.freqs[i]);
    const double norm = k1_ * (1.0 - b_ + b_ * doc_length / avg_len);
    score += idf * tf * (k1_ + 1.0) / (tf + norm);
  }
  return score;
}

double TfIdfScorer::ScoreMatch(const ScoringContext& context,
                               double doc_length,
                               const MatchedDoc& match) const {
  const double n = static_cast<double>(context.stats->num_documents);
  double score = 0.0;
  for (size_t i = 0; i < context.dfs.size(); ++i) {
    const double df = static_cast<double>(context.dfs[i]);
    if (df == 0.0) continue;
    const double tf = 1.0 + std::log(static_cast<double>(match.freqs[i]));
    score += tf * std::log(n / df);
  }
  return doc_length > 0.0 ? score / std::sqrt(doc_length) : score;
}

std::unique_ptr<ScoringFunction> MakeDefaultScorer() {
  return std::make_unique<Bm25Scorer>();
}

}  // namespace asup
