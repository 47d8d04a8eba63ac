#include "asup/suppress/cover_finder.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/util/random.h"

namespace asup {
namespace {

class CoverFinderTest : public ::testing::Test {
 protected:
  CoverFinderTest() {
    for (const char* w :
         {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}) {
      vocab_.AddWord(w);
    }
  }

  KeywordQuery Q(const std::string& word) {
    return KeywordQuery::FromWords(vocab_, {word});
  }

  Vocabulary vocab_;
  HistoryStore history_;
};

TEST_F(CoverFinderTest, EmptyMatchSetNotCovered) {
  CoverFinder finder(history_, 5, 1.0);
  EXPECT_FALSE(finder.Find({}).found);
}

TEST_F(CoverFinderTest, NoHistoryNotCovered) {
  CoverFinder finder(history_, 5, 1.0);
  EXPECT_FALSE(finder.Find({1, 2, 3}).found);
}

TEST_F(CoverFinderTest, SingleQueryCover) {
  history_.Record(Q("a"), {1, 2, 3, 4});
  CoverFinder finder(history_, 5, 1.0);
  const auto cover = finder.Find({2, 3});
  ASSERT_TRUE(cover.found);
  EXPECT_EQ(cover.query_indices, (std::vector<uint32_t>{0}));
}

TEST_F(CoverFinderTest, NeedsTwoQueries) {
  history_.Record(Q("a"), {1, 2});
  history_.Record(Q("b"), {3, 4});
  CoverFinder finder(history_, 5, 1.0);
  const auto cover = finder.Find({1, 3});
  ASSERT_TRUE(cover.found);
  ASSERT_EQ(cover.query_indices.size(), 2u);
  std::vector<uint32_t> sorted = cover.query_indices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<uint32_t>{0, 1}));
}

TEST_F(CoverFinderTest, UncoveredDocumentFails) {
  history_.Record(Q("a"), {1, 2});
  CoverFinder finder(history_, 5, 1.0);
  EXPECT_FALSE(finder.Find({1, 2, 99}).found);
}

TEST_F(CoverFinderTest, CoverSizeLimitRespected) {
  // Five disjoint historic answers, cover size 3: six docs spread over
  // five queries cannot be covered by three.
  for (int i = 0; i < 5; ++i) {
    history_.Record(Q(std::string(1, static_cast<char>('a' + i))),
                    {static_cast<DocId>(2 * i), static_cast<DocId>(2 * i + 1)});
  }
  CoverFinder finder3(history_, 3, 1.0);
  EXPECT_FALSE(finder3.Find({0, 2, 4, 6, 8, 9}).found);
  CoverFinder finder5(history_, 5, 1.0);
  EXPECT_TRUE(finder5.Find({0, 2, 4, 6, 8, 9}).found);
}

TEST_F(CoverFinderTest, ExactSearchBeatsGreedyTrap) {
  // Classic greedy trap: the "tempting" 3-element set is not part of any
  // 3-set cover — a pure greedy that picks it first needs 4 sets, but the
  // exact search must still find the cover {b, c, d}.
  history_.Record(Q("a"), {0, 1, 2});  // greedy would pick this first
  history_.Record(Q("b"), {0, 3});
  history_.Record(Q("c"), {1, 4});
  history_.Record(Q("d"), {2, 5});
  CoverFinder finder(history_, 3, 1.0);
  const auto cover = finder.Find({0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(cover.found);
  ASSERT_EQ(cover.query_indices.size(), 3u);
  std::vector<uint32_t> sorted = cover.query_indices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<uint32_t>{1, 2, 3}));
}

TEST_F(CoverFinderTest, PartialCoverRatio) {
  history_.Record(Q("a"), {1, 2, 3});
  CoverFinder strict(history_, 5, 1.0);
  EXPECT_FALSE(strict.Find({1, 2, 3, 4, 5}).found);
  CoverFinder loose(history_, 5, 0.6);
  EXPECT_TRUE(loose.Find({1, 2, 3, 4, 5}).found);  // 3/5 = 60%
}

TEST_F(CoverFinderTest, PartialCoverRespectsSize) {
  history_.Record(Q("a"), {1});
  history_.Record(Q("b"), {2});
  history_.Record(Q("c"), {3});
  CoverFinder finder(history_, 2, 0.75);
  // Best 2 queries cover 2 of 4 = 50% < 75%.
  EXPECT_FALSE(finder.Find({1, 2, 3, 4}).found);
}

TEST_F(CoverFinderTest, DuplicateAnswersNoDoubleCount) {
  history_.Record(Q("a"), {1, 2});
  history_.Record(Q("b"), {1, 2});
  CoverFinder finder(history_, 2, 1.0);
  EXPECT_FALSE(finder.Find({1, 2, 3}).found);
  EXPECT_TRUE(finder.Find({1, 2}).found);
}

TEST_F(CoverFinderTest, ManyCandidatesStillFast) {
  // 200 historic queries, each covering one doc; cover of a 5-doc match
  // set must pick the right 5 among 200.
  for (int i = 0; i < 200; ++i) {
    history_.Record(Q("a"), {static_cast<DocId>(i)});
  }
  CoverFinder finder(history_, 5, 1.0);
  const auto cover = finder.Find({10, 50, 100, 150, 199});
  ASSERT_TRUE(cover.found);
  EXPECT_EQ(cover.query_indices.size(), 5u);
}

TEST_F(CoverFinderTest, CoverIsActuallyACover) {
  // Random-ish structure; verify the returned indices truly cover.
  history_.Record(Q("a"), {1, 4, 7});
  history_.Record(Q("b"), {2, 4, 8});
  history_.Record(Q("c"), {3, 7, 9});
  history_.Record(Q("d"), {1, 2, 3});
  CoverFinder finder(history_, 3, 1.0);
  const std::vector<DocId> match{1, 2, 3, 4, 7};
  const auto cover = finder.Find(match);
  ASSERT_TRUE(cover.found);
  std::set<DocId> covered;
  for (uint32_t qi : cover.query_indices) {
    for (DocId d : history_.QueryAt(qi).answer) covered.insert(d);
  }
  for (DocId d : match) EXPECT_TRUE(covered.count(d)) << d;
}

// Whether some u <= m of `answers` together contain every id of `match`.
bool ExhaustiveFullCover(const std::vector<std::vector<DocId>>& answers,
                         const std::vector<DocId>& match, size_t m,
                         size_t first = 0,
                         std::vector<DocId> covered = {}) {
  if (std::includes(covered.begin(), covered.end(), match.begin(),
                    match.end())) {
    return true;
  }
  if (m == 0) return false;
  for (size_t i = first; i < answers.size(); ++i) {
    std::vector<DocId> next;
    std::set_union(covered.begin(), covered.end(), answers[i].begin(),
                   answers[i].end(), std::back_inserter(next));
    if (ExhaustiveFullCover(answers, match, m - 1, i + 1, next)) return true;
  }
  return false;
}

TEST_F(CoverFinderTest, FullCoverAgreesWithExhaustiveSearch) {
  // σ = 1: the signature prescreen may only reject match sets no cover
  // exists for, and the exact search must find one whenever it exists.
  Rng rng(31);
  const std::string words = "abcdefghij";
  size_t covered = 0;
  for (int trial = 0; trial < 300; ++trial) {
    HistoryStore history;
    std::vector<std::vector<DocId>> answers;
    const size_t queries = 1 + rng.UniformBelow(8);
    for (size_t q = 0; q < queries; ++q) {
      std::vector<std::string> text = {
          std::string(1, words[rng.UniformBelow(words.size())])};
      if (rng.Bernoulli(0.5)) {
        text.push_back(std::string(1, words[rng.UniformBelow(words.size())]));
      }
      std::vector<DocId> answer;
      for (DocId doc = 0; doc < 12; ++doc) {
        if (rng.Bernoulli(0.3)) answer.push_back(doc);
      }
      history.Record(KeywordQuery::FromWords(vocab_, text), answer);
      answers.push_back(answer);
    }
    std::vector<DocId> match;
    for (DocId doc = 0; doc < 12; ++doc) {
      if (rng.Bernoulli(0.25)) match.push_back(doc);
    }
    const size_t m = 1 + rng.UniformBelow(3);
    const CoverFinder finder(history, m, 1.0);
    const bool expected = !match.empty() &&
                          ExhaustiveFullCover(answers, match, m);
    EXPECT_EQ(finder.Find(match).found, expected) << "trial " << trial;
    covered += expected ? 1 : 0;
  }
  // Both outcomes occur.
  EXPECT_GT(covered, 20u);
  EXPECT_LT(covered, 280u);
}

}  // namespace
}  // namespace asup
