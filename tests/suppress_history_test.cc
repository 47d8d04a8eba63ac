#include "asup/suppress/history_store.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asup/index/corpus_manager.h"
#include "asup/suppress/processors.h"
#include "asup/util/bitvector.h"
#include "asup/util/random.h"

namespace asup {
namespace {

Vocabulary MakeVocab() {
  Vocabulary vocab;
  for (const char* w : {"a", "b", "c", "d"}) vocab.AddWord(w);
  return vocab;
}

TEST(HistoryStoreTest, EmptyStore) {
  HistoryStore store;
  EXPECT_EQ(store.NumQueries(), 0u);
  EXPECT_EQ(store.NumDocumentsSeen(), 0u);
  EXPECT_EQ(store.QueriesReturning(5), nullptr);
  EXPECT_EQ(store.SignatureOf(5), nullptr);
}

TEST(HistoryStoreTest, RecordIndexesDocuments) {
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  const auto q1 = KeywordQuery::FromWords(vocab, {"a"});
  const auto q2 = KeywordQuery::FromWords(vocab, {"b"});
  const uint32_t i1 = store.Record(q1, {10, 20, 30});
  const uint32_t i2 = store.Record(q2, {20, 40});
  EXPECT_EQ(i1, 0u);
  EXPECT_EQ(i2, 1u);
  EXPECT_EQ(store.NumQueries(), 2u);
  EXPECT_EQ(store.NumDocumentsSeen(), 4u);

  const auto* doc20 = store.QueriesReturning(20);
  ASSERT_NE(doc20, nullptr);
  EXPECT_EQ(*doc20, (std::vector<uint32_t>{0, 1}));
  const auto* doc40 = store.QueriesReturning(40);
  ASSERT_NE(doc40, nullptr);
  EXPECT_EQ(*doc40, (std::vector<uint32_t>{1}));
}

TEST(HistoryStoreTest, AnswersStoredSorted) {
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  store.Record(KeywordQuery::FromWords(vocab, {"a"}), {30, 10, 20});
  EXPECT_EQ(store.QueryAt(0).answer, (std::vector<DocId>{10, 20, 30}));
}

TEST(HistoryStoreTest, SignatureBitsSet) {
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  const auto q1 = KeywordQuery::FromWords(vocab, {"a"});
  const auto q2 = KeywordQuery::FromWords(vocab, {"b"});
  store.Record(q1, {10});
  store.Record(q2, {10});
  const QuerySignature* signature = store.SignatureOf(10);
  ASSERT_NE(signature, nullptr);
  EXPECT_TRUE(signature->Test(QuerySignatureBit(q1)));
  EXPECT_TRUE(signature->Test(QuerySignatureBit(q2)));
  // At most two bits (exactly two unless the hashes collide).
  EXPECT_LE(signature->Count(), 2u);
  EXPECT_GE(signature->Count(), 1u);
}

TEST(HistoryStoreTest, SignatureBitInRange) {
  Vocabulary vocab = MakeVocab();
  for (const char* w : {"a", "b", "c", "d"}) {
    const auto q = KeywordQuery::FromWords(vocab, {w});
    EXPECT_LT(QuerySignatureBit(q), kSignatureBits);
  }
}

TEST(HistoryStoreTest, QueryAtPreservesQuery) {
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  const auto q = KeywordQuery::FromWords(vocab, {"c", "a"});
  store.Record(q, {1, 2});
  EXPECT_EQ(store.QueryAt(0).query.canonical(), "a c");
}

TEST(HistoryStoreTest, EmptyAnswerRecordsQueryOnly) {
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  store.Record(KeywordQuery::FromWords(vocab, {"d"}), {});
  EXPECT_EQ(store.NumQueries(), 1u);
  EXPECT_EQ(store.NumDocumentsSeen(), 0u);
}

// The layout the store replaced — one hash-map node per document holding
// its query list and a heap BitVector signature — as the reference for
// the flat, inline-signature store.
struct ReferenceStore {
  struct Doc {
    std::vector<uint32_t> queries;
    BitVector signature{kSignatureBits};
  };
  std::vector<std::pair<KeywordQuery, std::vector<DocId>>> queries;
  std::unordered_map<DocId, Doc> per_doc;

  void Record(const KeywordQuery& query, std::vector<DocId> answer) {
    std::sort(answer.begin(), answer.end());
    const auto index = static_cast<uint32_t>(queries.size());
    for (DocId doc : answer) {
      Doc& entry = per_doc[doc];
      entry.queries.push_back(index);
      entry.signature.Set(QuerySignatureBit(query));
    }
    queries.emplace_back(query, std::move(answer));
  }
};

void ExpectSameStore(const HistoryStore& store, const ReferenceStore& ref,
                     const std::vector<DocId>& probes,
                     const std::string& label) {
  ASSERT_EQ(store.NumQueries(), ref.queries.size()) << label;
  EXPECT_EQ(store.NumDocumentsSeen(), ref.per_doc.size()) << label;
  for (size_t i = 0; i < ref.queries.size(); ++i) {
    EXPECT_EQ(store.QueryAt(i).query.canonical(),
              ref.queries[i].first.canonical())
        << label << " query " << i;
    EXPECT_EQ(store.QueryAt(i).answer, ref.queries[i].second)
        << label << " query " << i;
  }
  for (DocId doc : probes) {
    const auto it = ref.per_doc.find(doc);
    const QueryIndexList* queries = store.QueriesReturning(doc);
    const QuerySignature* signature = store.SignatureOf(doc);
    if (it == ref.per_doc.end()) {
      EXPECT_EQ(queries, nullptr) << label << " doc " << doc;
      EXPECT_EQ(signature, nullptr) << label << " doc " << doc;
      continue;
    }
    ASSERT_NE(queries, nullptr) << label << " doc " << doc;
    ASSERT_NE(signature, nullptr) << label << " doc " << doc;
    EXPECT_EQ(*queries, it->second.queries) << label << " doc " << doc;
    EXPECT_EQ(signature->Count(), it->second.signature.Count())
        << label << " doc " << doc;
    for (size_t bit = 0; bit < kSignatureBits; ++bit) {
      ASSERT_EQ(signature->Test(bit), it->second.signature.Test(bit))
          << label << " doc " << doc << " bit " << bit;
    }
    std::vector<size_t> bits, ref_bits;
    signature->ForEachSetBit([&](size_t bit) { bits.push_back(bit); });
    for (size_t bit = 0; bit < kSignatureBits; ++bit) {
      if (it->second.signature.Test(bit)) ref_bits.push_back(bit);
    }
    EXPECT_EQ(bits, ref_bits) << label << " doc " << doc;
  }
}

TEST(HistoryStoreTest, MatchesReferenceStoreOnRandomSparseIds) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<std::string> words;
  for (int w = 0; w < 40; ++w) {
    std::string word = "w";
    word += std::to_string(w);
    vocab->AddWord(word);
    words.push_back(std::move(word));
  }
  Rng rng(2024);
  // Dense small ids, sparse ids across the whole 32-bit range, and both
  // ends of it (kInvalidDoc = UINT32_MAX is never a document).
  std::vector<DocId> pool = {0, 1, UINT32_MAX - 1, UINT32_MAX - 2};
  for (DocId id = 2; id < 300; ++id) pool.push_back(id);
  while (pool.size() < 1200) {
    pool.push_back(static_cast<DocId>(rng.UniformBelow(UINT32_MAX)));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  // Probes: every pooled id plus ids never recorded.
  std::vector<DocId> probes = pool;
  for (int i = 0; i < 200; ++i) {
    probes.push_back(static_cast<DocId>(rng.UniformBelow(UINT32_MAX)));
  }

  HistoryStore store;
  ReferenceStore ref;
  for (int round = 0; round < 600; ++round) {
    std::vector<std::string> text = {words[rng.UniformBelow(words.size())]};
    if (rng.Bernoulli(0.5)) {
      text.push_back(words[rng.UniformBelow(words.size())]);
    }
    const KeywordQuery query = KeywordQuery::FromWords(*vocab, text);
    std::vector<DocId> answer;
    const size_t size = rng.UniformBelow(13);
    // Mostly a few hot documents, so query lists grow long, plus the
    // sparse tail.
    while (answer.size() < size) {
      const DocId doc = rng.Bernoulli(0.5)
                            ? pool[rng.UniformBelow(24)]
                            : pool[rng.UniformBelow(pool.size())];
      if (std::find(answer.begin(), answer.end(), doc) == answer.end()) {
        answer.push_back(doc);
      }
    }
    EXPECT_EQ(store.Record(query, answer), ref.queries.size());
    ref.Record(query, answer);
    if (round % 150 == 149) {
      ExpectSameStore(store, ref, probes, "round " + std::to_string(round));
    }
  }

  // Epoch compaction against a corpus holding every other pooled id: the
  // surviving answers keep their record order, and an answer left empty is
  // dropped — the reference replays the same rule.
  std::vector<Document> docs;
  for (size_t i = 0; i < pool.size(); i += 2) {
    docs.emplace_back(pool[i], std::vector<TermId>{0});
  }
  const Corpus corpus(vocab, std::move(docs));
  const InvertedIndex index(corpus);
  DefenseHistory history(/*cover_size=*/5, /*cover_ratio=*/1.0);
  ReferenceStore compacted;
  for (const auto& [query, answer] : ref.queries) {
    std::vector<DocId> survivors;
    for (DocId doc : answer) {
      if (corpus.Contains(doc)) survivors.push_back(doc);
    }
    if (!survivors.empty()) compacted.Record(query, std::move(survivors));
  }
  {
    WriterLock lock(history.mutex);
    history.Replace(std::move(store));
    history.CompactTo(*CorpusSnapshot::Borrow(index));
  }
  ASSERT_LT(compacted.queries.size(), ref.queries.size());
  ExpectSameStore(history.UnlockedStore(), compacted, probes, "compacted");
}

TEST(HistoryStoreTest, LongQueryListsOutgrowPoolBlocks) {
  // Doc 7 is in every answer, so its list outgrows any pool block; the
  // rotating docs fill block after block around it.
  Vocabulary vocab = MakeVocab();
  HistoryStore store;
  const auto query = KeywordQuery::FromWords(vocab, {"a"});
  constexpr uint32_t kQueries = 40000;
  for (uint32_t i = 0; i < kQueries; ++i) {
    store.Record(query, {7, 100 + i % 3000, 5000 + i % 7});
  }
  std::vector<uint32_t> all(kQueries);
  for (uint32_t i = 0; i < kQueries; ++i) all[i] = i;
  const QueryIndexList* hot = store.QueriesReturning(7);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(*hot, all);
  for (uint32_t doc : {100u, 1234u, 3099u, 5000u, 5006u}) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < kQueries; ++i) {
      if (100 + i % 3000 == doc || 5000 + i % 7 == doc) expected.push_back(i);
    }
    const QueryIndexList* list = store.QueriesReturning(doc);
    ASSERT_NE(list, nullptr) << doc;
    EXPECT_EQ(*list, expected) << doc;
  }
  // A moved store keeps every list.
  HistoryStore moved = std::move(store);
  EXPECT_EQ(*moved.QueriesReturning(7), all);
  EXPECT_EQ(moved.NumDocumentsSeen(), 1u + 3000u + 7u);
}

}  // namespace
}  // namespace asup
