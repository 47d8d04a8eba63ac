#ifndef ASUP_ENGINE_SCORING_H_
#define ASUP_ENGINE_SCORING_H_

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "asup/index/inverted_index.h"
#include "asup/text/vocabulary.h"

namespace asup {

class ScoringFunction;

/// Corpus-wide inputs to scoring for one query, computed once and read at
/// every match. Every partition of a scattered walk scores against the same
/// context, so its scores are bitwise those of the inline walk.
struct ScoringContext {
  /// Statistics of the logical corpus (num_documents, average_doc_length).
  const IndexStats* stats = nullptr;

  /// Document frequency of each query term across the logical corpus, in
  /// query-term order (parallel to a match's frequencies).
  std::vector<size_t> dfs;

  /// The scorer's per-term query constant (BM25's idf, TF-IDF's log(n/df)),
  /// parallel to `dfs`: computed once per query, not once per match.
  std::vector<double> weights;
};

/// Builds the scoring context of `terms` for `scorer` against one index
/// covering the whole corpus.
ScoringContext MakeScoringContext(const InvertedIndex& index,
                                  std::span<const TermId> terms,
                                  const ScoringFunction& scorer);

/// The engine's ranking function.
///
/// The paper treats the enterprise scoring function as deterministic and
/// proprietary (unknown to external users); any fixed implementation of
/// this interface plays that role. Ties are broken by the engine on
/// ascending document id, so ranking is a strict total order.
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  /// The per-query constant of one query term with corpus-wide document
  /// frequency `df` — what MakeScoringContext stores in
  /// ScoringContext::weights.
  virtual double TermWeight(const IndexStats& stats, size_t df) const = 0;

  /// Relevance of a matched document to the query. Higher is better.
  /// `context` must come from MakeScoringContext with this scorer;
  /// `doc_length` is the matched document's token count; `freqs` holds its
  /// per-query-term frequencies.
  virtual double ScoreMatch(const ScoringContext& context, double doc_length,
                            std::span<const uint32_t> freqs) const = 0;

  /// Single-index convenience: builds the context from `index` and scores
  /// the document at `local_doc` whose frequencies of `terms` are `freqs`.
  /// Callers scoring many matches of one query should build the context
  /// once with MakeScoringContext and call ScoreMatch directly.
  double Score(const InvertedIndex& index, std::span<const TermId> terms,
               uint32_t local_doc, std::span<const uint32_t> freqs) const;
};

/// Okapi BM25 — the default ranking function of the substrate engine.
/// Final, with ScoreMatch inline: the engine's walk resolves the library
/// scorers to their concrete types once per engine and scores each match
/// through a direct, inlinable call (same expression, same order, so the
/// scores are bitwise those of a call through ScoringFunction).
class Bm25Scorer final : public ScoringFunction {
 public:
  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75) : k1_(k1), b_(b) {}

  /// The term's idf.
  double TermWeight(const IndexStats& stats, size_t df) const override;

  double ScoreMatch(const ScoringContext& context, double doc_length,
                    std::span<const uint32_t> freqs) const override {
    const IndexStats& stats = *context.stats;
    const double avg_len =
        stats.average_doc_length > 0.0 ? stats.average_doc_length : 1.0;
    const double norm = k1_ * (1.0 - b_ + b_ * doc_length / avg_len);
    double score = 0.0;
    for (size_t i = 0; i < context.weights.size(); ++i) {
      const double tf = static_cast<double>(freqs[i]);
      score += context.weights[i] * tf * (k1_ + 1.0) / (tf + norm);
    }
    return score;
  }

 private:
  double k1_;
  double b_;
};

/// Classic TF-IDF with log-scaled term frequency; provided as an alternate
/// "proprietary" ranker to demonstrate that the defenses are agnostic to the
/// scoring function. Final with ScoreMatch inline, like Bm25Scorer.
class TfIdfScorer final : public ScoringFunction {
 public:
  /// log(n / df); 0 for an unindexed term, which ScoreMatch skips.
  double TermWeight(const IndexStats& stats, size_t df) const override;

  double ScoreMatch(const ScoringContext& context, double doc_length,
                    std::span<const uint32_t> freqs) const override {
    double score = 0.0;
    for (size_t i = 0; i < context.weights.size(); ++i) {
      if (context.dfs[i] == 0) continue;
      const double tf = 1.0 + std::log(static_cast<double>(freqs[i]));
      score += tf * context.weights[i];
    }
    return doc_length > 0.0 ? score / std::sqrt(doc_length) : score;
  }
};

/// Returns the library's default scorer (BM25 with standard parameters).
std::unique_ptr<ScoringFunction> MakeDefaultScorer();

}  // namespace asup

#endif  // ASUP_ENGINE_SCORING_H_
