// Property tests of the iterator algebra (engine/doc_iterator.h): random
// And/Or/Not trees over random corpora, checked against a brute-force
// set-algebra oracle that never touches the index or the iterators.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/query_node.h"
#include "asup/index/inverted_index.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/random.h"

namespace asup {
namespace {

// Brute-force oracle: evaluates the tree by scanning documents, sharing no
// code with the compile/execute path under test.
std::set<uint32_t> Oracle(const InvertedIndex& index, const QueryNode& node) {
  std::set<uint32_t> out;
  switch (node.kind()) {
    case QueryNode::Kind::kTerm:
      for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
        if (index.DocAt(local).Contains(node.term())) out.insert(local);
      }
      return out;
    case QueryNode::Kind::kAnd: {
      bool first = true;
      for (const QueryNode& child : node.children()) {
        const std::set<uint32_t> hits = Oracle(index, child);
        if (first) {
          out = hits;
          first = false;
        } else {
          std::set<uint32_t> kept;
          std::set_intersection(out.begin(), out.end(), hits.begin(),
                                hits.end(), std::inserter(kept, kept.end()));
          out = std::move(kept);
        }
      }
      return out;
    }
    case QueryNode::Kind::kOr:
      for (const QueryNode& child : node.children()) {
        const std::set<uint32_t> hits = Oracle(index, child);
        out.insert(hits.begin(), hits.end());
      }
      return out;
    case QueryNode::Kind::kNot: {
      const std::set<uint32_t> hits = Oracle(index, node.children()[0]);
      for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
        if (!hits.count(local)) out.insert(local);
      }
      return out;
    }
    case QueryNode::Kind::kEmpty:
      return out;
  }
  return out;
}

// Random tree: leaves are terms (occasionally unindexed ids just past the
// vocabulary, occasionally Empty); inner nodes are And/Or with 1..8
// children or Not. Small vocabularies make duplicate terms frequent.
QueryNode RandomTree(Rng& rng, size_t vocab_size, int depth) {
  const uint64_t roll = rng.UniformBelow(depth == 0 ? 8 : 16);
  if (roll < 7) {
    return QueryNode::Term(
        static_cast<TermId>(rng.UniformBelow(vocab_size + 16)));
  }
  if (roll == 7) return QueryNode::MakeEmpty();
  if (roll == 15) return QueryNode::Not(RandomTree(rng, vocab_size, depth - 1));
  const size_t arity = 1 + rng.UniformBelow(8);
  std::vector<QueryNode> children;
  children.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    children.push_back(RandomTree(rng, vocab_size, depth - 1));
  }
  return roll < 12 ? QueryNode::And(std::move(children))
                   : QueryNode::Or(std::move(children));
}

Corpus SmallCorpus(uint64_t seed, size_t docs) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 60;
  config.num_topics = 4;
  config.words_per_topic = 12;
  config.seed = seed;
  SyntheticCorpusGenerator generator(config);
  return generator.Generate(docs);
}

void ExpectTreeMatchesOracle(const InvertedIndex& index,
                             const QueryNode& node) {
  const std::set<uint32_t> expected_set = Oracle(index, node);
  const std::vector<uint32_t> expected(expected_set.begin(),
                                       expected_set.end());
  for (const OrStrategy strategy :
       {OrStrategy::kAdaptive, OrStrategy::kFlat, OrStrategy::kHeap}) {
    EXPECT_EQ(ExecuteMatch(index, node, {}, strategy).local_docs, expected);
    EXPECT_EQ(ExecuteCount(index, node, strategy), expected.size());
  }
  // ExecuteMatch must agree on the documents and report each one's true
  // per-term frequencies for the tree's terms.
  const std::vector<TermId> terms = node.CollectTerms();
  const MatchList matches = ExecuteMatch(index, node, terms);
  ASSERT_EQ(matches.size(), expected.size());
  ASSERT_EQ(matches.freqs.size(), matches.size() * terms.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(matches.local_docs[i], expected[i]);
    ASSERT_EQ(matches.FreqsOf(i).size(), terms.size());
    for (size_t t = 0; t < terms.size(); ++t) {
      EXPECT_EQ(matches.FreqsOf(i)[t],
                index.DocAt(matches.local_docs[i]).FrequencyOf(terms[t]));
    }
  }
}

class QueryAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryAlgebraTest, RandomTreesMatchSetAlgebraOracle) {
  const Corpus corpus = SmallCorpus(900 + GetParam(), 150);
  const InvertedIndex index(corpus);
  const size_t vocab = corpus.vocabulary().size();
  Rng rng(17 + GetParam());
  for (int round = 0; round < 120; ++round) {
    const QueryNode node = RandomTree(rng, vocab, 3);
    ExpectTreeMatchesOracle(index, node);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryAlgebraTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(QueryAlgebraShapesTest, HandPickedShapes) {
  const Corpus corpus = SmallCorpus(5, 120);
  const InvertedIndex index(corpus);
  const TermId a = 3, b = 7, c = 11, d = 19;
  const TermId unknown = static_cast<TermId>(corpus.vocabulary().size() + 5);

  std::vector<QueryNode> shapes;
  // Duplicate terms inside And and Or.
  shapes.push_back(QueryNode::And({QueryNode::Term(a), QueryNode::Term(a)}));
  shapes.push_back(QueryNode::Or({QueryNode::Term(a), QueryNode::Term(a)}));
  // Unknown term erases an And, vanishes from an Or.
  shapes.push_back(
      QueryNode::And({QueryNode::Term(a), QueryNode::Term(unknown)}));
  shapes.push_back(
      QueryNode::Or({QueryNode::Term(a), QueryNode::Term(unknown)}));
  // Explicit Empty children.
  shapes.push_back(QueryNode::And({QueryNode::Term(a), QueryNode::MakeEmpty()}));
  shapes.push_back(QueryNode::Or({QueryNode::MakeEmpty(), QueryNode::Term(b)}));
  // Single-child composites collapse.
  shapes.push_back(QueryNode::And({QueryNode::Term(c)}));
  shapes.push_back(QueryNode::Or({QueryNode::Term(c)}));
  // Not, double Not, Not of Empty (= everything), Not of everything.
  shapes.push_back(QueryNode::Not(QueryNode::Term(a)));
  shapes.push_back(QueryNode::Not(QueryNode::Not(QueryNode::Term(a))));
  shapes.push_back(QueryNode::Not(QueryNode::MakeEmpty()));
  shapes.push_back(QueryNode::Not(QueryNode::Not(QueryNode::MakeEmpty())));
  // (a AND b) OR (c AND NOT d) — the mixed shape engines will see from a
  // boolean front end.
  shapes.push_back(QueryNode::Or(
      {QueryNode::And({QueryNode::Term(a), QueryNode::Term(b)}),
       QueryNode::And(
           {QueryNode::Term(c), QueryNode::Not(QueryNode::Term(d))})}));
  // Wide And / Or of 8 children.
  {
    std::vector<QueryNode> wide;
    for (TermId t = 0; t < 8; ++t) wide.push_back(QueryNode::Term(t * 5));
    shapes.push_back(QueryNode::And(std::vector<QueryNode>(wide)));
    shapes.push_back(QueryNode::Or(std::move(wide)));
  }

  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectTreeMatchesOracle(index, shapes[i]);
  }
}

// The conjunctive fast shape must expose aligned TermIterators (no
// document lookups during scoring), and its frequencies must equal the
// fallback path's.
TEST(QueryAlgebraShapesTest, ConjunctionExposesAlignedTerms) {
  const Corpus corpus = SmallCorpus(6, 120);
  const InvertedIndex index(corpus);
  const QueryNode node =
      QueryNode::And({QueryNode::Term(2), QueryNode::Term(9)});
  const CompiledQuery compiled = CompileQuery(index, node);
  ASSERT_EQ(compiled.aligned_terms.size(), 2u);
  // Rarest-first ordering.
  EXPECT_LE(compiled.aligned_terms[0]->CostEstimate(),
            compiled.aligned_terms[1]->CostEstimate());
  ExpectTreeMatchesOracle(index, node);
}

TEST(QueryAlgebraShapesTest, GeneralTreesHaveNoAlignedTerms) {
  const Corpus corpus = SmallCorpus(7, 60);
  const InvertedIndex index(corpus);
  const QueryNode node =
      QueryNode::Or({QueryNode::Term(2), QueryNode::Term(9)});
  EXPECT_TRUE(CompileQuery(index, node).aligned_terms.empty());
}

}  // namespace
}  // namespace asup
