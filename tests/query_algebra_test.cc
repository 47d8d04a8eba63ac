// Property tests of the iterator algebra (engine/doc_iterator.h): random
// And/Or/Not trees over random corpora, checked against a brute-force
// set-algebra oracle that never touches the index or the iterators.

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/query.h"
#include "asup/engine/query_node.h"
#include "asup/engine/search_engine.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/text/corpus.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/random.h"
#include "asup/util/thread_pool.h"

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

// A tree that compiles to one indexed term walks the concrete
// TermIterator when its `freq_terms` are empty (the engine's id-only walk)
// or exactly that term, and the general loop otherwise. Both sides of that
// selection must yield the oracle's documents in each range, with each
// document's true frequency of every scoring term.
void ExpectBareTermWalksMatchOracle(const InvertedIndex& index,
                                    const QueryNode& node, TermId other,
                                    const std::vector<DocRange>& ranges) {
  const CompiledQuery compiled = CompileQuery(index, node);
  ASSERT_NE(compiled.BareTerm(), nullptr);
  const TermId t = compiled.BareTerm()->term();
  const std::vector<std::vector<TermId>> freq_term_sets = {
      {}, {t}, {t, t}, {other}, {other, t}};
  for (const DocRange& range : ranges) {
    std::vector<uint32_t> expected_docs;
    for (uint32_t local = range.lo; local < range.hi; ++local) {
      if (index.DocAt(local).Contains(t)) expected_docs.push_back(local);
    }
    for (const std::vector<TermId>& freq_terms : freq_term_sets) {
      SCOPED_TRACE(testing::Message()
                   << "[" << range.lo << ", " << range.hi << ") with "
                   << freq_terms.size() << " scoring terms");
      std::vector<uint32_t> expected_freqs;
      for (const uint32_t local : expected_docs) {
        for (const TermId term : freq_terms) {
          expected_freqs.push_back(index.DocAt(local).FrequencyOf(term));
        }
      }
      std::vector<uint32_t> docs;
      std::vector<uint32_t> freqs;
      ForEachMatchIn(index, range, node, freq_terms,
                     [&](uint32_t local, std::span<const uint32_t> match) {
                       ASSERT_EQ(match.size(), freq_terms.size());
                       docs.push_back(local);
                       freqs.insert(freqs.end(), match.begin(), match.end());
                     });
      EXPECT_EQ(docs, expected_docs);
      EXPECT_EQ(freqs, expected_freqs);
    }
  }
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
  const CompiledQuery compiled = CompileQuery(index, node);
  if (compiled.BareTerm() != nullptr) {
    ExpectBareTermWalksMatchOracle(index, node, compiled.BareTerm()->term() + 1,
                                   {index.AllDocs()});
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

// Range walks (ForEachMatchIn / ExecuteCountIn) are what a scatter
// partition runs: walking [lo, hi) must yield exactly the whole walk's
// matches in the range, with the same frequencies, and the range count
// must equal their number.
void ExpectRangeWalkIsRestriction(const InvertedIndex& index,
                                  const QueryNode& node,
                                  OrStrategy strategy,
                                  const std::vector<DocRange>& ranges) {
  const std::vector<TermId> terms = node.CollectTerms();
  const MatchList whole = ExecuteMatch(index, node, terms, strategy);
  for (const DocRange& range : ranges) {
    SCOPED_TRACE(testing::Message()
                 << "[" << range.lo << ", " << range.hi << ")");
    std::vector<uint32_t> expected_docs;
    std::vector<uint32_t> expected_freqs;
    for (size_t i = 0; i < whole.size(); ++i) {
      const uint32_t local = whole.local_docs[i];
      if (local < range.lo || local >= range.hi) continue;
      expected_docs.push_back(local);
      const auto freqs = whole.FreqsOf(i);
      expected_freqs.insert(expected_freqs.end(), freqs.begin(), freqs.end());
    }
    std::vector<uint32_t> docs;
    std::vector<uint32_t> freqs;
    ForEachMatchIn(
        index, range, node, terms,
        [&](uint32_t local, std::span<const uint32_t> match_freqs) {
          docs.push_back(local);
          freqs.insert(freqs.end(), match_freqs.begin(), match_freqs.end());
        },
        strategy);
    EXPECT_EQ(docs, expected_docs);
    EXPECT_EQ(freqs, expected_freqs);
    EXPECT_EQ(ExecuteCountIn(index, range, node, strategy),
              expected_docs.size());
  }
}

// Local ids at and next to the block boundaries of `term`'s posting list:
// the first doc of every block but the first, one below and one above it,
// and one past the previous block's last doc.
std::vector<uint32_t> BlockBoundaryIds(const InvertedIndex& index,
                                       TermId term) {
  const std::vector<Posting> postings = index.Postings(term).Decode();
  std::vector<uint32_t> ids;
  for (size_t i = PostingList::kPostingBlock; i < postings.size();
       i += PostingList::kPostingBlock) {
    const uint32_t first = postings[i].local_doc;
    ids.insert(ids.end(),
               {first - 1, first, first + 1, postings[i - 1].local_doc + 1});
  }
  return ids;
}

TEST(RangeWalkTest, RangeWalkIsTheWholeWalkRestricted) {
  const Corpus corpus = SmallCorpus(31, 1500);
  const InvertedIndex index(corpus);
  const uint32_t n = static_cast<uint32_t>(index.NumDocuments());

  // The two densest terms span several posting blocks; a third, rarer
  // one widens the Or to the heap's crossover.
  std::vector<TermId> by_df(corpus.vocabulary().size());
  for (TermId t = 0; t < by_df.size(); ++t) by_df[t] = t;
  std::stable_sort(by_df.begin(), by_df.end(), [&](TermId x, TermId y) {
    return index.DocumentFrequency(x) > index.DocumentFrequency(y);
  });
  const TermId a = by_df[0], b = by_df[1], c = by_df[by_df.size() / 2];
  ASSERT_GT(index.Postings(b).NumSkipEntries(), 2u);
  const auto term = [](TermId t) { return QueryNode::Term(t); };

  std::vector<uint32_t> bounds = {0, 1, n / 2, n - 1, n};
  for (TermId t : {a, b}) {
    for (uint32_t id : BlockBoundaryIds(index, t)) bounds.push_back(id);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  ASSERT_LE(bounds.back(), n);
  std::vector<DocRange> ranges;
  for (uint32_t lo : bounds) {
    ranges.push_back({lo, lo});  // empty
    ranges.push_back({lo, n});   // to the end of the index
    ranges.push_back({0, lo});
  }
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    ranges.push_back({bounds[i], bounds[i + 1]});
    if (i + 3 < bounds.size()) ranges.push_back({bounds[i], bounds[i + 3]});
  }

  const std::vector<QueryNode> trees = {
      term(a),
      QueryNode::And({term(a), term(b)}),
      QueryNode::And({term(a), term(b), term(c)}),
      QueryNode::Or({term(a), term(c)}),
      QueryNode::Or({term(a), term(b), term(c)}),
      QueryNode::Not(term(a)),
      QueryNode::And({term(b), QueryNode::Not(term(a))}),
      QueryNode::Not(QueryNode::Or({term(a), term(b)})),
      QueryNode::MakeEmpty(),
  };
  for (size_t i = 0; i < trees.size(); ++i) {
    SCOPED_TRACE(i);
    for (const OrStrategy strategy : {OrStrategy::kFlat, OrStrategy::kHeap}) {
      ExpectRangeWalkIsRestriction(index, trees[i], strategy, ranges);
    }
  }
  ExpectBareTermWalksMatchOracle(index, term(a), b, ranges);
  ExpectBareTermWalksMatchOracle(index, term(b), c, ranges);

  // Random trees over random ranges.
  Rng rng(23);
  for (int round = 0; round < 40; ++round) {
    const QueryNode node = RandomTree(rng, corpus.vocabulary().size(), 3);
    std::vector<DocRange> random_ranges;
    for (int r = 0; r < 8; ++r) {
      const auto x = static_cast<uint32_t>(rng.UniformBelow(n + 1));
      const auto y = static_cast<uint32_t>(rng.UniformBelow(n + 1));
      random_ranges.push_back({std::min(x, y), std::max(x, y)});
    }
    ExpectRangeWalkIsRestriction(index, node, OrStrategy::kAdaptive,
                                 random_ranges);
  }
}

// A corpus whose head terms span many posting blocks, for the conjunctive
// walk (TermAndIterator: leapfrog over in-block gallops and block jumps).
// Term "t<i>" occurs in each document with probability kDensities[i], 1–3
// times; 2–5 of 16 filler words vary the lengths. The random gaps put
// leapfrog targets anywhere in a block, at a block's first or last
// posting, and past it.
constexpr double kDensities[] = {0.9, 0.6, 0.35, 0.1, 0.02, 0.004};

Corpus MultiBlockCorpus(uint64_t seed, size_t num_docs) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<TermId> heads;
  for (size_t i = 0; i < std::size(kDensities); ++i) {
    heads.push_back(vocab->AddWord("t" + std::to_string(i)));
  }
  std::vector<TermId> fillers;
  for (int w = 0; w < 16; ++w) {
    fillers.push_back(vocab->AddWord("f" + std::to_string(w)));
  }
  Rng rng(seed);
  std::vector<Document> docs;
  std::vector<TermId> tokens;
  for (size_t id = 0; id < num_docs; ++id) {
    tokens.clear();
    for (size_t i = 0; i < heads.size(); ++i) {
      if (rng.Bernoulli(kDensities[i])) {
        tokens.insert(tokens.end(), 1 + rng.UniformBelow(3), heads[i]);
      }
    }
    const size_t extra = 2 + rng.UniformBelow(4);
    for (size_t i = 0; i < extra; ++i) {
      tokens.push_back(fillers[rng.UniformBelow(fillers.size())]);
    }
    docs.emplace_back(static_cast<DocId>(id), tokens);
  }
  return Corpus(std::move(vocab), std::move(docs));
}

// Every conjunctive walk (ExecuteMatch, ExecuteCount, ExecuteCountIn,
// ForEachMatchIn over a range) of And(`terms`) against a scan of the
// documents, for each of `freq_term_sets`.
void ExpectConjunctionMatchesScan(
    const InvertedIndex& index, const std::vector<TermId>& terms,
    const std::vector<std::vector<TermId>>& freq_term_sets,
    const std::vector<DocRange>& ranges) {
  std::vector<QueryNode> children;
  for (const TermId t : terms) children.push_back(QueryNode::Term(t));
  const QueryNode node = QueryNode::And(std::move(children));

  std::vector<uint32_t> expected;
  for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
    const Document& doc = index.DocAt(local);
    if (std::all_of(terms.begin(), terms.end(),
                    [&](TermId t) { return doc.Contains(t); })) {
      expected.push_back(local);
    }
  }
  // Two or more distinct indexed terms compile to the concrete term
  // conjunction, which is the walk under test.
  std::set<TermId> distinct(terms.begin(), terms.end());
  const bool indexed = std::all_of(
      distinct.begin(), distinct.end(),
      [&](TermId t) { return !index.Postings(t).empty(); });
  EXPECT_EQ(CompileQuery(index, node).TermConjunction() != nullptr,
            indexed && distinct.size() >= 2);

  EXPECT_EQ(ExecuteCount(index, node), expected.size());
  for (const std::vector<TermId>& freq_terms : freq_term_sets) {
    SCOPED_TRACE(testing::Message() << freq_terms.size() << " scoring terms");
    std::vector<uint32_t> expected_freqs;
    for (const uint32_t local : expected) {
      for (const TermId t : freq_terms) {
        expected_freqs.push_back(index.DocAt(local).FrequencyOf(t));
      }
    }
    const MatchList matches = ExecuteMatch(index, node, freq_terms);
    EXPECT_EQ(matches.local_docs, expected);
    EXPECT_EQ(matches.freqs, expected_freqs);
  }

  const std::vector<TermId>& freq_terms = freq_term_sets.back();
  for (const DocRange& range : ranges) {
    SCOPED_TRACE(testing::Message()
                 << "[" << range.lo << ", " << range.hi << ")");
    std::vector<uint32_t> expected_docs;
    std::vector<uint32_t> expected_freqs;
    for (const uint32_t local : expected) {
      if (local < range.lo || local >= range.hi) continue;
      expected_docs.push_back(local);
      for (const TermId t : freq_terms) {
        expected_freqs.push_back(index.DocAt(local).FrequencyOf(t));
      }
    }
    EXPECT_EQ(ExecuteCountIn(index, range, node), expected_docs.size());
    std::vector<uint32_t> docs;
    std::vector<uint32_t> freqs;
    ForEachMatchIn(index, range, node, freq_terms,
                   [&](uint32_t local, std::span<const uint32_t> match) {
                     docs.push_back(local);
                     freqs.insert(freqs.end(), match.begin(), match.end());
                   });
    EXPECT_EQ(docs, expected_docs);
    EXPECT_EQ(freqs, expected_freqs);
  }
}

TEST(ConjunctionWalkTest, MultiBlockConjunctionsMatchScan) {
  const Corpus corpus = MultiBlockCorpus(41, 6000);
  const InvertedIndex index(corpus);
  const uint32_t n = static_cast<uint32_t>(index.NumDocuments());
  const TermId t0 = 0, t1 = 1, t2 = 2, t3 = 3, t4 = 4, t5 = 5;
  const TermId filler = 6;  // in no conjunction below
  const TermId unindexed = static_cast<TermId>(corpus.vocabulary().size() + 3);
  for (const TermId head : {t0, t1, t2}) {
    ASSERT_GE(index.Postings(head).NumSkipEntries(), 8u) << head;
  }
  ASSERT_GT(index.Postings(t5).size(), 0u);

  const std::vector<std::vector<TermId>> conjunctions = {
      {t0, t1},              // dense x dense
      {t1, t0},
      {t2, t1},
      {t4, t0},              // rare x dense
      {t0, t5},
      {t3, t1},
      {t0, t1, t2},          // three and four terms
      {t3, t2, t1, t0},
      {t0, t4, t1, t2},
      {t0, t0, t1},          // duplicates
      {t1, t4, t1, t0},
      {t0, t0},              // a duplicate of one term: the bare term
      {t0, unindexed},       // an unindexed term empties the conjunction
      {unindexed, t1, t2},
  };
  for (const std::vector<TermId>& terms : conjunctions) {
    SCOPED_TRACE(testing::Message() << "conjunction of " << terms.size()
                                    << " starting t" << terms.front());
    // Scoring-term orders: none, the query's, reversed, rotated, with a
    // term outside the conjunction (read from the document) and with a
    // repeat.
    std::vector<std::vector<TermId>> freq_term_sets = {{}, terms};
    freq_term_sets.emplace_back(terms.rbegin(), terms.rend());
    std::vector<TermId> rotated = terms;
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    freq_term_sets.push_back(rotated);
    freq_term_sets.push_back({filler, terms.back()});
    std::vector<TermId> mixed = terms;
    mixed.insert(mixed.begin() + 1, filler);
    mixed.push_back(terms.front());
    freq_term_sets.push_back(mixed);

    // Ranges at and next to every block boundary of each term's list.
    std::vector<uint32_t> bounds = {0, 1, n / 2, n - 1, n};
    for (const TermId t : terms) {
      if (t >= corpus.vocabulary().size()) continue;
      for (const uint32_t id : BlockBoundaryIds(index, t)) bounds.push_back(id);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    std::vector<DocRange> ranges;
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i + 1 < bounds.size()) ranges.push_back({bounds[i], bounds[i + 1]});
      if (i % 7 == 0) {
        ranges.push_back({bounds[i], n});
        ranges.push_back({0, bounds[i]});
      }
    }
    ExpectConjunctionMatchesScan(index, terms, freq_term_sets, ranges);
  }
}

// A corpus whose term lists sit on both sides of the density rule
// (PostingList::kDenseRatio × df >= last doc + 1), for the conjunction's
// probe path: a TermAndIterator probes every dense child but its driver.
// Local ids equal document ids. "huge0"/"huge1" hold nearly every
// document, so a conjunction of the two is big enough for a pooled engine
// to fan it out (kFanOutMinPostings).
constexpr size_t kDensityDocs = 36000;

struct DensityTerm {
  const char* word;
  bool dense;
};

// In term-id order.
constexpr DensityTerm kDensityTerms[] = {
    {"huge0", true},   // density 0.97
    {"huge1", true},   // 0.95
    {"mid", true},     // 0.2
    {"edge", true},    // 0.13, just above 1/8
    {"sparse", false}, // 0.1
    {"rare", false},   // 0.003: one partial block
    {"exact", true},   // 8i+7, i < 1000: 8·df = last + 1 = 8000, and the
                       // last doc is 63 mod 64; 7 blocks and a partial one
    {"short", false},  // exact, one posting short: 8·999 < 8000
    {"at64", true},    // 8i, i <= 1000: last doc 8000, 0 mod 64
    {"at64sparse", false},  // 16i, i <= 500: last doc 8000, 8·501 < 8001
};

Corpus DensityRuleCorpus() {
  auto vocab = std::make_shared<Vocabulary>();
  for (const DensityTerm& term : kDensityTerms) vocab->AddWord(term.word);
  std::vector<TermId> fillers;
  for (int w = 0; w < 16; ++w) {
    fillers.push_back(vocab->AddWord("f" + std::to_string(w)));
  }
  const double densities[] = {0.97, 0.95, 0.2, 0.13, 0.1, 0.003};
  Rng rng(61);
  std::vector<Document> docs;
  std::vector<TermId> tokens;
  const auto add = [&](TermId term) {
    tokens.insert(tokens.end(), 1 + rng.UniformBelow(3), term);
  };
  for (size_t id = 0; id < kDensityDocs; ++id) {
    tokens.clear();
    for (TermId t = 0; t < std::size(densities); ++t) {
      if (rng.Bernoulli(densities[t])) add(t);
    }
    if (id % 8 == 7 && id < 8000) {
      add(6);
      if (id != 8 * 500 + 7) add(7);
    }
    if (id % 8 == 0 && id <= 8000) add(8);
    if (id % 16 == 0 && id <= 8000) add(9);
    const size_t extra = 2 + rng.UniformBelow(4);
    for (size_t i = 0; i < extra; ++i) {
      tokens.push_back(fillers[rng.UniformBelow(fillers.size())]);
    }
    docs.emplace_back(static_cast<DocId>(id), tokens);
  }
  return Corpus(std::move(vocab), std::move(docs));
}

// Every walk of a conjunction on each side of the density rule against the
// document scan: counts, ids, frequencies (ExpectConjunctionMatchesScan)
// over block-boundary ranges and the ranges of 1, 2, 3, 4 and 7
// partitions; and the engine's count, ids and top-k at limits 1, 5, 10 and
// all over an index of each partition count, pooled, against the scan's
// documents ranked by the engine's scorer.
TEST(ConjunctionWalkTest, ConjunctionsAcrossTheDensityRuleMatchScan) {
  const Corpus corpus = DensityRuleCorpus();
  const InvertedIndex index(corpus);
  const uint32_t n = static_cast<uint32_t>(index.NumDocuments());
  for (TermId t = 0; t < std::size(kDensityTerms); ++t) {
    const PostingList& list = index.Postings(t);
    ASSERT_EQ(list.dense(), kDensityTerms[t].dense) << kDensityTerms[t].word;
    EXPECT_EQ(PostingList::kDenseRatio * list.size() >=
                  list.Decode().back().local_doc + 1u,
              list.dense());
  }
  const TermId huge0 = 0, huge1 = 1, mid = 2, edge = 3, sparse = 4, rare = 5,
               exact = 6, short_ = 7, at64 = 8, at64sparse = 9;
  ASSERT_EQ(index.Postings(exact).size(), 1000u);
  ASSERT_EQ(index.Postings(short_).size(), 999u);
  ASSERT_GE(index.Postings(huge1).size(), kFanOutMinPostings);
  const TermId filler = 10;  // in no conjunction below

  const std::vector<std::vector<TermId>> conjunctions = {
      {huge0, huge1},               // a dense driver probing a dense list
      {huge1, mid},
      {exact, huge0},
      {at64, huge1, mid},
      {edge, exact},                // dense ∧ dense, both small
      {exact, at64},
      {huge0, huge1, mid, edge},
      {rare, huge0, sparse},        // rare ∧ dense ∧ sparse
      {rare, exact, short_},
      {short_, exact},
      {sparse, edge, huge0, huge1},
      {rare, at64sparse, huge0},
      {at64sparse, at64},
      {huge0, huge0, mid},          // duplicates
      {exact, short_, exact},
      {mid, rare, mid, huge1},
  };

  std::vector<uint32_t> partition_bounds;
  for (const size_t parts : {1, 2, 3, 4, 7}) {
    for (size_t s = 0; s < parts; ++s) {
      partition_bounds.push_back(ShardRange(n, parts, s).lo);
    }
  }
  for (const std::vector<TermId>& terms : conjunctions) {
    SCOPED_TRACE(testing::Message() << "conjunction of " << terms.size()
                                    << " starting "
                                    << kDensityTerms[terms.front()].word);
    std::vector<std::vector<TermId>> freq_term_sets = {{}, terms};
    freq_term_sets.emplace_back(terms.rbegin(), terms.rend());
    std::vector<TermId> mixed = terms;
    mixed.insert(mixed.begin() + 1, filler);
    mixed.push_back(terms.front());
    freq_term_sets.push_back(mixed);

    // Ranges between neighboring block boundaries of the sparser lists
    // (the dense lists' boundaries would make thousands), a few longer
    // ones, and every partition of each count.
    std::vector<uint32_t> bounds = {0, 1, n / 2, n - 1, n};
    for (const TermId t : terms) {
      if (index.Postings(t).size() > 2000) continue;
      for (const uint32_t id : BlockBoundaryIds(index, t)) bounds.push_back(id);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    std::vector<DocRange> ranges;
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      ranges.push_back({bounds[i], bounds[i + 1]});
      if (i % 9 == 0) ranges.push_back({bounds[i], n});
    }
    for (const size_t parts : {1, 2, 3, 4, 7}) {
      for (size_t s = 0; s < parts; ++s) {
        ranges.push_back(ShardRange(n, parts, s));
      }
    }
    ExpectConjunctionMatchesScan(index, terms, freq_term_sets, ranges);
  }

  ThreadPool pool(2);
  const MatchingEngine single(index, 10);
  for (const size_t parts : {1, 2, 3, 4, 7}) {
    const ShardedInvertedIndex sharded(corpus, parts);
    const ShardedSearchService engine(sharded, 10, &pool);
    for (const std::vector<TermId>& terms : conjunctions) {
      std::vector<std::string> words;
      for (const TermId t : terms) words.push_back(kDensityTerms[t].word);
      const KeywordQuery query = KeywordQuery::FromWords(corpus.vocabulary(),
                                                         words);
      SCOPED_TRACE(testing::Message() << parts << " partitions, "
                                      << query.terms().size() << " terms");
      std::vector<DocId> expected_ids;
      for (uint32_t local = 0; local < n; ++local) {
        const Document& doc = index.DocAt(local);
        if (std::all_of(terms.begin(), terms.end(),
                        [&](TermId t) { return doc.Contains(t); })) {
          expected_ids.push_back(doc.id());
        }
      }
      EXPECT_EQ(engine.MatchCount(query), expected_ids.size());
      EXPECT_EQ(engine.MatchIds(query), expected_ids);
      const std::vector<ScoredDoc> ranked =
          single.RankDocs(query, expected_ids);
      for (const size_t limit : {size_t{1}, size_t{5}, size_t{10},
                                 expected_ids.size()}) {
        const RankedMatches top = engine.TopMatches(query, limit);
        EXPECT_EQ(top.total_matches, expected_ids.size());
        ASSERT_EQ(top.docs.size(), std::min(limit, ranked.size()));
        for (size_t i = 0; i < top.docs.size(); ++i) {
          ASSERT_EQ(top.docs[i].doc, ranked[i].doc) << "limit " << limit;
          ASSERT_EQ(top.docs[i].score, ranked[i].score) << "limit " << limit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace asup
