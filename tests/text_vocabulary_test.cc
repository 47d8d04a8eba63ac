#include "asup/text/vocabulary.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace asup {
namespace {

TEST(VocabularyTest, AddAndLookup) {
  Vocabulary vocab;
  const TermId linux = vocab.AddWord("linux");
  const TermId windows = vocab.AddWord("windows");
  EXPECT_NE(linux, windows);
  EXPECT_EQ(vocab.Lookup("linux"), linux);
  EXPECT_EQ(vocab.Lookup("windows"), windows);
  EXPECT_FALSE(vocab.Lookup("macos").has_value());
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, AddIsIdempotent) {
  Vocabulary vocab;
  const TermId a = vocab.AddWord("kernel");
  const TermId b = vocab.AddWord("kernel");
  EXPECT_EQ(a, b);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(VocabularyTest, WordOfRoundTrips) {
  Vocabulary vocab;
  const TermId id = vocab.AddWord("handbook");
  EXPECT_EQ(vocab.WordOf(id), "handbook");
}

TEST(VocabularyTest, IdsAreDense) {
  Vocabulary vocab;
  for (int i = 0; i < 100; ++i) {
    std::string word = "w";
    word += std::to_string(i);
    EXPECT_EQ(vocab.AddWord(word), static_cast<TermId>(i));
  }
}

TEST(VocabularyTest, GenerateSyntheticExactSize) {
  Rng rng(1);
  auto vocab = Vocabulary::GenerateSynthetic(5000, rng);
  EXPECT_EQ(vocab->size(), 5000u);
}

TEST(VocabularyTest, GenerateSyntheticAllDistinct) {
  Rng rng(2);
  auto vocab = Vocabulary::GenerateSynthetic(2000, rng);
  std::set<std::string> words;
  for (TermId id = 0; id < vocab->size(); ++id) {
    words.insert(vocab->WordOf(id));
  }
  EXPECT_EQ(words.size(), 2000u);
}

TEST(VocabularyTest, ReservedWordsGetLowIds) {
  Rng rng(3);
  auto vocab =
      Vocabulary::GenerateSynthetic(100, rng, {"sports", "patent"});
  EXPECT_EQ(vocab->Lookup("sports"), TermId{0});
  EXPECT_EQ(vocab->Lookup("patent"), TermId{1});
  EXPECT_EQ(vocab->size(), 100u);
}

TEST(VocabularyTest, GenerateSyntheticDeterministicForSeed) {
  Rng rng1(7);
  Rng rng2(7);
  auto a = Vocabulary::GenerateSynthetic(500, rng1);
  auto b = Vocabulary::GenerateSynthetic(500, rng2);
  for (TermId id = 0; id < 500; ++id) {
    EXPECT_EQ(a->WordOf(id), b->WordOf(id));
  }
}

TEST(WordSynthesizerTest, ProducesLowercaseAlpha) {
  Rng rng(11);
  WordSynthesizer synthesizer(rng);
  for (int i = 0; i < 500; ++i) {
    const std::string word = synthesizer.NextWord();
    EXPECT_GE(word.size(), 2u);
    for (char c : word) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << word;
    }
  }
}

}  // namespace
}  // namespace asup
