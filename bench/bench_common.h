#ifndef ASUP_BENCH_BENCH_COMMON_H_
#define ASUP_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asup/attack/correlated.h"
#include "asup/attack/stratified_est.h"
#include "asup/attack/unbiased_est.h"
#include "asup/eval/experiment.h"
#include "asup/eval/utility.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "asup/text/corpus.h"
#include "asup/util/csv.h"
#include "asup/util/random.h"
#include "asup/workload/aol_like.h"

namespace asup {
namespace bench {

/// Parameters of one suppression experiment family. All corpus sizes are
/// chosen *inside a single indistinguishable segment* [γ^i, γ^{i+1}): under
/// Algorithm 1's fixed segment partition, an exact factor-γ pair necessarily
/// straddles a segment boundary, so (as in the paper's own experiments,
/// whose recallable corpus sizes have ratio 1.51 rather than 2.0) the
/// "2S/5T/10T" corpora are the largest same-segment sizes. See DESIGN.md.
struct FamilyParams {
  size_t universe;
  size_t held_out;
  std::vector<size_t> corpus_sizes;
  std::vector<std::string> corpus_names;
  double gamma;
  size_t k;
  uint64_t budget;
  uint64_t report_every;
  uint64_t seed = 2012;
  /// Vocabulary size of the synthetic universe. The k = 50 experiments use
  /// a larger vocabulary: a larger k needs an even rarer-word-dominated
  /// pool for the adversary's probes, mirroring real web text.
  size_t vocabulary = 100000;
  /// Pool stop-word threshold (QueryPool::Options::max_df_fraction).
  double pool_max_df_fraction = 1.0;
};

/// γ = 2, k = 5 family (Figures 4, 5, 6, 7, 11, 14, 15, 16, 17): the
/// segment is [16384, 32768) at default scale and [65536, 131072) at paper
/// scale.
inline FamilyParams Gamma2Family() {
  FamilyParams p;
  if (PaperScale()) {
    p.universe = 140000;
    p.held_out = 20000;
    p.corpus_sizes = {68000, 90440, 113560, 130000};
    p.budget = 40000;
    p.report_every = 2000;
  } else {
    p.universe = 36000;
    p.held_out = 6000;
    p.corpus_sizes = {17000, 22610, 28390, 32500};
    p.budget = 3000;
    p.report_every = 300;
  }
  p.corpus_names = {"S", "1.33S", "1.67S", "2S"};
  p.gamma = 2.0;
  p.k = 5;
  return p;
}

/// γ = 5 family (Figure 8): segment [15625, 78125) at default scale.
inline FamilyParams Gamma5Family() {
  FamilyParams p;
  if (PaperScale()) {
    p.universe = 400000;
    p.held_out = 30000;
    p.corpus_sizes = {80000, 385000};
    p.budget = 40000;
    p.report_every = 2000;
  } else {
    p.universe = 85000;
    p.held_out = 9000;
    p.corpus_sizes = {16000, 77000};
    // γ·k = 25 documents are activated per query, so the suppression
    // transient is shorter than in the γ = 2 family; stop before deep
    // saturation.
    p.budget = 2000;
    p.report_every = 200;
  }
  p.corpus_names = {"T", "5T"};
  p.gamma = 5.0;
  p.k = 5;
  return p;
}

/// γ = 10 family (Figures 9, 10): segment [10^4, 10^5). The paper's own
/// sizes (10,000 and 100,000) are used almost verbatim.
inline FamilyParams Gamma10Family() {
  FamilyParams p;
  p.universe = 110000;
  p.held_out = 10000;
  p.corpus_sizes = {11000, 99000};
  p.budget = PaperScale() ? 40000 : 3000;
  p.report_every = PaperScale() ? 2000 : 300;
  p.corpus_names = {"T", "10T"};
  p.gamma = 10.0;
  p.k = 5;
  if (!PaperScale()) {
    // γ·k = 50 activations per query: an even shorter transient.
    p.budget = 1500;
    p.report_every = 150;
  }
  return p;
}

/// Builds the family's shared environment (universe + held-out external
/// sample + adversarial pool).
inline std::unique_ptr<ExperimentEnv> MakeEnv(const FamilyParams& p) {
  ExperimentEnv::Options options;
  options.universe_size = p.universe;
  options.held_out_size = p.held_out;
  options.seed = p.seed;
  options.corpus_config.vocabulary_size = p.vocabulary;
  options.pool_max_df_fraction = p.pool_max_df_fraction;
  return std::make_unique<ExperimentEnv>(options);
}

/// k = 50 family (Figures 12, 13). k = 50 dynamics need larger corpora
/// than the γ = 2 family: every query can disclose (and thereby activate)
/// up to γ·k = 100 documents, so the suppression transient — where the
/// protection lives — is proportionally shorter.
inline FamilyParams K50Family() {
  FamilyParams p = Gamma2Family();
  p.k = 50;
  p.vocabulary = 300000;
  // Drop common words from the pool: with k = 50 the probe queries would
  // otherwise touch (and thereby activate) so many documents per query
  // that the suppression transient collapses; real attack pools exclude
  // stop words for the same d_max reason.
  p.pool_max_df_fraction = 0.001;
  if (PaperScale()) {
    p.universe = 140000;
    p.held_out = 20000;
    p.corpus_sizes = {68000, 90440, 113560, 130000};
    p.budget = 6000;
    p.report_every = 600;
  } else {
    p.universe = 70000;
    p.held_out = 10000;
    p.corpus_sizes = {34000, 45220, 56780, 65000};
    p.budget = 4000;
    p.report_every = 400;
  }
  return p;
}

/// Samples the family's corpora from the environment's universe.
inline std::vector<Corpus> MakeCorpora(const ExperimentEnv& env,
                                       const FamilyParams& p) {
  std::vector<Corpus> corpora;
  for (size_t i = 0; i < p.corpus_sizes.size(); ++i) {
    corpora.push_back(env.SampleCorpus(p.corpus_sizes[i], i + 1));
  }
  return corpora;
}

enum class Defense { kNone, kSimple, kArbi };

inline const char* DefenseName(Defense defense) {
  switch (defense) {
    case Defense::kNone:
      return "plain";
    case Defense::kSimple:
      return "AS-SIMPLE";
    case Defense::kArbi:
      return "AS-ARBI";
  }
  return "?";
}

inline EngineStack MakeStack(const Corpus& corpus, const FamilyParams& p,
                             Defense defense) {
  switch (defense) {
    case Defense::kSimple: {
      AsSimpleConfig config;
      config.gamma = p.gamma;
      return EngineStack::WithSimple(corpus, p.k, config);
    }
    case Defense::kArbi: {
      AsArbiConfig config;
      config.simple.gamma = p.gamma;
      return EngineStack::WithArbi(corpus, p.k, config);
    }
    case Defense::kNone:
      break;
  }
  return EngineStack::Plain(corpus, p.k);
}

/// Pointwise average of equal-cadence trajectories (truncated to the
/// shortest). Single UNBIASED-EST runs have heavy-tailed noise; figures
/// over high-variance configurations average a few attack replicates, each
/// with fresh attack randomness *and* fresh defense state.
inline std::vector<EstimationPoint> AverageTrajectories(
    const std::vector<std::vector<EstimationPoint>>& replicates) {
  std::vector<EstimationPoint> average;
  if (replicates.empty()) return average;
  size_t rows = SIZE_MAX;
  for (const auto& r : replicates) rows = std::min(rows, r.size());
  for (size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (const auto& r : replicates) sum += r[i].estimate;
    average.push_back({replicates[0][i].queries_issued,
                       sum / static_cast<double>(replicates.size())});
  }
  return average;
}

/// Runs UNBIASED-EST against every corpus under `defense` and returns the
/// estimate trajectories (averaged over `replicates` independent attacks).
inline std::vector<std::vector<EstimationPoint>> RunUnbiasedSweep(
    const ExperimentEnv& env, const std::vector<Corpus>& corpora,
    const FamilyParams& p, Defense defense,
    const AggregateQuery& aggregate = AggregateQuery::Count(),
    size_t replicates = 1) {
  std::vector<std::vector<EstimationPoint>> trajectories;
  for (const Corpus& corpus : corpora) {
    std::vector<std::vector<EstimationPoint>> runs;
    for (size_t rep = 0; rep < replicates; ++rep) {
      EngineStack stack = MakeStack(corpus, p, defense);
      UnbiasedEstimator::Options options;
      options.seed = p.seed + 7 + rep * 101;
      UnbiasedEstimator estimator(env.pool(), aggregate, FetchFrom(corpus),
                                  options);
      runs.push_back(
          estimator.Run(stack.service(), p.budget, p.report_every));
    }
    trajectories.push_back(AverageTrajectories(runs));
  }
  return trajectories;
}

/// Utility trajectory of a defense on one corpus against an AOL-like log.
inline std::vector<UtilityPoint> RunUtility(const Corpus& corpus,
                                            const FamilyParams& p,
                                            Defense defense,
                                            size_t log_size) {
  AolLikeConfig log_config;
  log_config.log_size = log_size;
  log_config.unique_queries = log_size / 3;
  AolLikeWorkload workload(corpus, log_config);
  EngineStack reference = EngineStack::Plain(corpus, p.k);
  EngineStack defended = MakeStack(corpus, p, defense);
  return MeasureUtility(reference.service(), defended.service(),
                        workload.log(), std::max<size_t>(log_size / 10, 1));
}

/// Converts utility trajectories into a CSV with interleaved
/// recall/precision (and optionally rank-distance) columns.
inline CsvTable UtilityCsv(
    const std::vector<std::string>& names,
    const std::vector<std::vector<UtilityPoint>>& series,
    bool include_rank_distance = false) {
  std::vector<std::string> columns{"queries"};
  for (const auto& name : names) {
    columns.push_back("recall_" + name);
    columns.push_back("precision_" + name);
    if (include_rank_distance) columns.push_back("rankdist_" + name);
  }
  CsvTable table(std::move(columns));
  size_t rows = SIZE_MAX;
  for (const auto& s : series) rows = std::min(rows, s.size());
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> row{static_cast<double>(series[0][r].queries)};
    for (const auto& s : series) {
      row.push_back(s[r].recall);
      row.push_back(s[r].precision);
      if (include_rank_distance) row.push_back(s[r].rank_distance);
    }
    table.AddRow(row);
  }
  return table;
}

/// Shared driver of the correlated-query-attack figures (18 and 19). Runs
/// the Section 5.1 attack against AS-SIMPLE and AS-ARBI over a corpus of
/// `corpus_size` topical documents, printing each query's *count ratio* —
/// the answer size divided by what a fresh (empty-state) defended engine
/// would return. A declining ratio is the attack's signal.
///
/// The topical generator configuration makes the seed word's document
/// frequency comparable to k, the regime of the paper's P/2P experiment:
/// on P the correlated queries are valid (hiding is visible and the ratio
/// decays), on 2P they overflow (hidden documents are replaced from the
/// surplus and the ratio stays flat).
inline void RunCorrelatedFigure(size_t corpus_size, const char* title) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 10000;
  config.num_topics = 96;
  config.words_per_topic = 300;
  config.seed = 99;
  SyntheticCorpusGenerator generator(config);
  const Corpus corpus = generator.Generate(corpus_size);
  const Corpus external = generator.Generate(2500);
  const InvertedIndex index(corpus);
  PlainSearchEngine engine(index, 50);

  CorrelatedQueryAttack::Options attack_options;
  attack_options.num_queries = 94;
  attack_options.min_cooccurrence = 3;
  const CorrelatedQueryAttack attack(external, "sports", attack_options);

  AsSimpleConfig simple_config;
  simple_config.gamma = 2.0;
  AsSimpleEngine simple(engine, simple_config);
  AsArbiConfig arbi_config;
  arbi_config.simple = simple_config;
  AsArbiEngine arbi(engine, arbi_config);

  const auto counts_simple = attack.Run(simple);
  const auto counts_arbi = attack.Run(arbi);

  CsvTable table({"query", "count_ratio_AS-SIMPLE", "count_ratio_AS-ARBI"});
  for (size_t i = 0; i < attack.queries().size(); ++i) {
    AsSimpleEngine fresh(engine, simple_config);
    const double fresh_count = static_cast<double>(
        fresh.Search(attack.queries()[i]).docs.size());
    if (fresh_count == 0) continue;
    table.AddRow({static_cast<double>(i + 1),
                  static_cast<double>(counts_simple[i]) / fresh_count,
                  static_cast<double>(counts_arbi[i]) / fresh_count});
  }
  PrintFigure(title, table);
}

/// A corpus whose document frequencies climb in powers of two, for timing
/// the sharded engine on both sides of its fan-out rule
/// (kFanOutMinPostings): term "df<d>" occurs in every (num_docs / d)-th
/// document, for each power of two d from `min_df` to `num_docs` (itself a
/// power of two), 1–3 times. Every document also carries 2–9 of 64 filler
/// words, so lengths, term frequencies and hence scores vary.
inline Corpus DfLadderCorpus(size_t num_docs, size_t min_df) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<std::pair<size_t, TermId>> ladder;  // (stride, term)
  for (size_t df = min_df; df <= num_docs; df *= 2) {
    ladder.emplace_back(num_docs / df,
                        vocab->AddWord("df" + std::to_string(df)));
  }
  std::vector<TermId> fillers;
  for (int w = 0; w < 64; ++w) {
    fillers.push_back(vocab->AddWord("filler" + std::to_string(w)));
  }
  Rng rng(17);
  std::vector<Document> docs;
  docs.reserve(num_docs);
  std::vector<TermId> tokens;
  for (size_t id = 0; id < num_docs; ++id) {
    tokens.clear();
    for (const auto& [stride, term] : ladder) {
      if (id % stride != 0) continue;
      tokens.insert(tokens.end(), 1 + rng.UniformBelow(3), term);
    }
    const size_t extra = 2 + rng.UniformBelow(8);
    for (size_t i = 0; i < extra; ++i) {
      tokens.push_back(fillers[rng.UniformBelow(fillers.size())]);
    }
    docs.emplace_back(static_cast<DocId>(id), tokens);
  }
  return Corpus(std::move(vocab), std::move(docs));
}

}  // namespace bench
}  // namespace asup

#endif  // ASUP_BENCH_BENCH_COMMON_H_
