#include "asup/engine/scoring.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace asup {
namespace {

// A tiny corpus with controlled term statistics.
class ScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    const TermId rare = vocab_->AddWord("rare");      // df 1
    const TermId common = vocab_->AddWord("common");  // df 4
    const TermId filler = vocab_->AddWord("filler");
    rare_ = rare;
    common_ = common;

    std::vector<Document> docs;
    // Doc 0: short, contains rare + common.
    docs.emplace_back(0, std::vector<TermId>{rare, common, filler});
    // Doc 1: long, one 'common', many fillers.
    std::vector<TermId> long_tokens(50, filler);
    long_tokens.push_back(common);
    docs.emplace_back(1, long_tokens);
    // Doc 2: 'common' thrice.
    docs.emplace_back(2, std::vector<TermId>{common, common, common, filler});
    // Doc 3: 'common' once, short.
    docs.emplace_back(3, std::vector<TermId>{common, filler, filler});
    corpus_ = std::make_unique<Corpus>(vocab_, std::move(docs));
    index_ = std::make_unique<InvertedIndex>(*corpus_);
  }

  // Frequency of each of `terms` in document `id`, in query-term order.
  std::vector<uint32_t> Freqs(DocId id, const std::vector<TermId>& terms) {
    const Document& doc = corpus_->Get(id);
    std::vector<uint32_t> freqs;
    for (TermId term : terms) freqs.push_back(doc.FrequencyOf(term));
    return freqs;
  }

  // `scorer`'s score of document `id` for the query `terms`.
  double ScoreOf(const ScoringFunction& scorer,
                 const std::vector<TermId>& terms, DocId id) {
    return scorer.Score(*index_, terms, index_->LocalOf(id), Freqs(id, terms));
  }

  std::shared_ptr<Vocabulary> vocab_;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<InvertedIndex> index_;
  TermId rare_;
  TermId common_;
};

TEST_F(ScoringTest, Bm25RareTermOutscoresCommonTerm) {
  Bm25Scorer scorer;
  const std::vector<TermId> rare_q{rare_};
  const std::vector<TermId> common_q{common_};
  const double rare_score = ScoreOf(scorer, rare_q, 0);
  const double common_score = ScoreOf(scorer, common_q, 0);
  EXPECT_GT(rare_score, common_score);
}

TEST_F(ScoringTest, Bm25HigherTfScoresHigher) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  // Doc 2 has tf 3, doc 3 has tf 1; similar lengths.
  EXPECT_GT(ScoreOf(scorer, q, 2), ScoreOf(scorer, q, 3));
}

TEST_F(ScoringTest, Bm25LengthNormalizationPenalizesLongDocs) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  // Doc 3 (short, tf 1) vs doc 1 (long, tf 1).
  EXPECT_GT(ScoreOf(scorer, q, 3), ScoreOf(scorer, q, 1));
}

TEST_F(ScoringTest, Bm25TfSaturates) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  const uint32_t local = index_->LocalOf(3);
  const uint32_t tf1[] = {1};
  const uint32_t tf10[] = {10};
  const uint32_t tf100[] = {100};
  const double s1 = scorer.Score(*index_, q, local, tf1);
  const double s10 = scorer.Score(*index_, q, local, tf10);
  const double s100 = scorer.Score(*index_, q, local, tf100);
  EXPECT_GT(s10, s1);
  EXPECT_GT(s100, s10);
  // Diminishing returns: the 10 -> 100 jump adds less than 1 -> 10.
  EXPECT_LT(s100 - s10, s10 - s1);
}

TEST_F(ScoringTest, Bm25MultiTermIsAdditive) {
  Bm25Scorer scorer;
  const std::vector<TermId> both{rare_, common_};
  const std::vector<TermId> just_rare{rare_};
  const std::vector<TermId> just_common{common_};
  const double sum =
      ScoreOf(scorer, just_rare, 0) + ScoreOf(scorer, just_common, 0);
  const double joint = ScoreOf(scorer, both, 0);
  EXPECT_NEAR(joint, sum, 1e-9);
}

TEST_F(ScoringTest, Bm25ScoresArePositive) {
  Bm25Scorer scorer;
  for (DocId id : {0u, 2u, 3u}) {
    EXPECT_GT(ScoreOf(scorer, {common_}, id), 0.0);
  }
}

TEST_F(ScoringTest, TfIdfRareTermOutscoresCommonTerm) {
  TfIdfScorer scorer;
  EXPECT_GT(ScoreOf(scorer, {rare_}, 0), ScoreOf(scorer, {common_}, 0));
}

TEST_F(ScoringTest, Bm25ParametersMatter) {
  // b = 0 disables length normalization: long and short docs with equal tf
  // score equally.
  Bm25Scorer no_length_norm(1.2, 0.0);
  const std::vector<TermId> q{common_};
  EXPECT_NEAR(ScoreOf(no_length_norm, q, 3),
              ScoreOf(no_length_norm, q, 1), 1e-9);
}

TEST_F(ScoringTest, PerQueryWeightsKeepEveryScoreBitwise) {
  // The per-term constants are computed once per query; every score must
  // still be the double of the per-match closed forms.
  const std::vector<TermId> q{rare_, common_};
  const double n = static_cast<double>(index_->NumDocuments());
  const double avg_len = index_->stats().average_doc_length;
  const double k1 = 1.2;
  const double b = 0.75;
  Bm25Scorer bm25(k1, b);
  TfIdfScorer tfidf;
  for (DocId id = 0; id < 4; ++id) {
    const std::vector<uint32_t> freqs = Freqs(id, q);
    const double length = static_cast<double>(corpus_->Get(id).length());
    double bm25_score = 0.0;
    double tfidf_score = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      const double df = static_cast<double>(index_->DocumentFrequency(q[i]));
      const double idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);
      const double tf = static_cast<double>(freqs[i]);
      const double norm = k1 * (1.0 - b + b * length / avg_len);
      bm25_score += idf * tf * (k1 + 1.0) / (tf + norm);
      tfidf_score += (1.0 + std::log(tf)) * std::log(n / df);
    }
    EXPECT_EQ(ScoreOf(bm25, q, id), bm25_score) << "doc " << id;
    // Documents without "rare" score -inf in both (log of a zero tf).
    EXPECT_EQ(ScoreOf(tfidf, q, id),
              tfidf_score / std::sqrt(length))
        << "doc " << id;
  }
}

TEST_F(ScoringTest, DefaultScorerIsBm25) {
  auto scorer = MakeDefaultScorer();
  ASSERT_NE(scorer, nullptr);
  EXPECT_NE(dynamic_cast<Bm25Scorer*>(scorer.get()), nullptr);
}

}  // namespace
}  // namespace asup
