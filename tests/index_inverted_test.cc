#include "asup/index/inverted_index.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/query_node.h"
#include "asup/text/synthetic_corpus.h"

namespace asup {
namespace {

// Matching moved out of the index into the engine's iterator algebra; these
// helpers keep the historical conjunctive-semantics tests (which exercise
// the *index* as seen through an And-of-terms tree) in their original shape.
QueryNode AndOf(const std::vector<TermId>& terms) {
  if (terms.empty()) return QueryNode::MakeEmpty();
  std::vector<QueryNode> children;
  children.reserve(terms.size());
  for (TermId term : terms) children.push_back(QueryNode::Term(term));
  return QueryNode::And(std::move(children));
}

MatchList Match(const InvertedIndex& index,
                const std::vector<TermId>& terms) {
  return ExecuteMatch(index, AndOf(terms), terms);
}

size_t Count(const InvertedIndex& index, const std::vector<TermId>& terms) {
  return ExecuteCount(index, AndOf(terms));
}

// Small hand-built corpus mirroring Figure 1 of the paper.
Corpus FigureOneCorpus() {
  auto vocab = std::make_shared<Vocabulary>();
  const TermId linux = vocab->AddWord("linux");      // 0
  const TermId os = vocab->AddWord("os");            // 1
  const TermId kernel = vocab->AddWord("kernel");    // 2
  const TermId windows = vocab->AddWord("windows");  // 3
  const TermId handbook = vocab->AddWord("handbook");  // 4
  std::vector<Document> docs;
  // X1: Linux OS Kernel
  docs.emplace_back(1, std::vector<TermId>{linux, os, kernel});
  // X2: Windows XP OS Handbook (xp omitted for brevity)
  docs.emplace_back(2, std::vector<TermId>{windows, os, handbook});
  // X3: Linux OS Handbook Volume 1
  docs.emplace_back(3, std::vector<TermId>{linux, os, handbook});
  // X4: Comparison between Windows and Linux OS
  docs.emplace_back(4, std::vector<TermId>{windows, linux, os});
  return Corpus(vocab, std::move(docs));
}

TEST(InvertedIndexTest, DocumentFrequencies) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const auto& vocab = corpus.vocabulary();
  EXPECT_EQ(index.DocumentFrequency(*vocab.Lookup("os")), 4u);
  EXPECT_EQ(index.DocumentFrequency(*vocab.Lookup("linux")), 3u);
  EXPECT_EQ(index.DocumentFrequency(*vocab.Lookup("windows")), 2u);
  EXPECT_EQ(index.DocumentFrequency(*vocab.Lookup("kernel")), 1u);
  EXPECT_EQ(index.DocumentFrequency(TermId{999}), 0u);
}

TEST(InvertedIndexTest, SingleTermMatch) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const TermId linux = *corpus.vocabulary().Lookup("linux");
  const auto matches = Match(index, std::vector<TermId>{linux});
  ASSERT_EQ(matches.size(), 3u);
  // Ascending by id.
  EXPECT_EQ(index.LocalToId(matches.local_docs[0]), 1u);
  EXPECT_EQ(index.LocalToId(matches.local_docs[1]), 3u);
  EXPECT_EQ(index.LocalToId(matches.local_docs[2]), 4u);
}

TEST(InvertedIndexTest, ConjunctiveMatchIntersects) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const auto& vocab = corpus.vocabulary();
  const std::vector<TermId> terms{*vocab.Lookup("linux"),
                                  *vocab.Lookup("handbook")};
  const auto matches = Match(index, terms);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(index.LocalToId(matches.local_docs[0]), 3u);
  EXPECT_EQ(matches.FreqsOf(0).size(), 2u);
  EXPECT_EQ(matches.FreqsOf(0)[0], 1u);  // linux tf in X3
  EXPECT_EQ(matches.FreqsOf(0)[1], 1u);  // handbook tf in X3
}

TEST(InvertedIndexTest, EmptyQueryMatchesNothing) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  EXPECT_TRUE(Match(index, {}).empty());
  EXPECT_EQ(Count(index, {}), 0u);
}

TEST(InvertedIndexTest, UnknownTermMatchesNothing) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const TermId kernel = *corpus.vocabulary().Lookup("kernel");
  EXPECT_TRUE(
      Match(index, std::vector<TermId>{kernel, TermId{99}}).empty());
}

TEST(InvertedIndexTest, DuplicateQueryTerms) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const TermId linux = *corpus.vocabulary().Lookup("linux");
  const auto matches =
      Match(index, std::vector<TermId>{linux, linux});
  EXPECT_EQ(matches.size(), 3u);
  for (size_t i = 0; i < matches.size(); ++i) {
    ASSERT_EQ(matches.FreqsOf(i).size(), 2u);
    EXPECT_EQ(matches.FreqsOf(i)[0], matches.FreqsOf(i)[1]);
  }
}

TEST(InvertedIndexTest, MatchCountAgreesWithMatch) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const auto& vocab = corpus.vocabulary();
  for (const char* w1 : {"linux", "os", "windows", "kernel", "handbook"}) {
    for (const char* w2 : {"linux", "os", "windows", "kernel", "handbook"}) {
      const std::vector<TermId> terms{*vocab.Lookup(w1), *vocab.Lookup(w2)};
      EXPECT_EQ(Count(index, terms),
                Match(index, terms).size())
          << w1 << " " << w2;
    }
  }
}

TEST(InvertedIndexTest, LocalIdsAscendWithDocIds) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  for (uint32_t local = 1; local < index.NumDocuments(); ++local) {
    EXPECT_LT(index.LocalToId(local - 1), index.LocalToId(local));
  }
}

TEST(InvertedIndexTest, LocalOfInvertsLocalToId) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
    EXPECT_EQ(index.LocalOf(index.LocalToId(local)), local);
  }
}

TEST(InvertedIndexTest, StatsAreConsistent) {
  Corpus corpus = FigureOneCorpus();
  InvertedIndex index(corpus);
  const IndexStats& stats = index.stats();
  EXPECT_EQ(stats.num_documents, 4u);
  EXPECT_EQ(stats.num_terms, 5u);
  EXPECT_EQ(stats.num_postings, 4u + 3u + 2u + 1u + 2u);
  EXPECT_GT(stats.posting_bytes, 0u);
  EXPECT_NEAR(stats.average_doc_length, 3.0, 1e-9);
}

// Cross-check conjunctive matching against a brute-force scan on a larger
// synthetic corpus.
class IndexAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexAgreementTest, MatchesBruteForceScan) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 800;
  config.num_topics = 8;
  config.words_per_topic = 80;
  config.seed = 123 + GetParam();
  SyntheticCorpusGenerator generator(config);
  Corpus corpus = generator.Generate(400);
  InvertedIndex index(corpus);

  Rng rng(55 + GetParam());
  for (int round = 0; round < 50; ++round) {
    const size_t num_terms = 1 + rng.UniformBelow(3);
    std::vector<TermId> terms;
    for (size_t t = 0; t < num_terms; ++t) {
      terms.push_back(static_cast<TermId>(
          rng.UniformBelow(config.vocabulary_size)));
    }
    std::vector<DocId> expected;
    for (const Document& doc : corpus.documents()) {
      bool all = true;
      for (TermId term : terms) all = all && doc.Contains(term);
      if (all) expected.push_back(doc.id());
    }
    std::sort(expected.begin(), expected.end());

    std::vector<DocId> actual;
    for (uint32_t local : Match(index, terms).local_docs) {
      actual.push_back(index.LocalToId(local));
    }
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(Count(index, terms), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexAgreementTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace asup
