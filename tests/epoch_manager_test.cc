// CorpusManager / CorpusSnapshot: epoch chaining, the incremental
// posting-list merge, and the determinism contract that a merged epoch's
// index is bitwise identical to one built fresh from the epoch's corpus.
// The concurrency case (queries pinning epochs while publishes land) is
// the TSan target of the `epoch` suites.

#include "asup/index/corpus_manager.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/thread_pool.h"

namespace asup {
namespace {

SyntheticCorpusConfig SmallConfig(uint64_t seed = 7) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = seed;
  return config;
}

/// A delta that adds `add` fresh universe documents (the generator owns the
/// id sequence) and removes every stride-th current document.
CorpusDelta MakeDelta(SyntheticCorpusGenerator& generator,
                      const Corpus& current, size_t add, size_t remove) {
  CorpusDelta delta;
  if (add > 0) {
    const Corpus fresh = generator.Generate(add);
    delta.add.assign(fresh.documents().begin(), fresh.documents().end());
  }
  if (remove > 0 && !current.documents().empty()) {
    const size_t stride = std::max<size_t>(1, current.size() / remove);
    for (size_t pos = 0; pos < current.size() && delta.remove.size() < remove;
         pos += stride) {
      delta.remove.push_back(current.documents()[pos].id());
    }
  }
  return delta;
}

/// Structural byte-level equality of two indexes: same local-id mapping,
/// same per-term compressed posting lists (payload size, skip entries, and
/// decoded content), and exactly equal stats (including the double
/// average, which the merge must reproduce with fresh-build arithmetic).
void ExpectIndexesBitwiseEqual(const InvertedIndex& a,
                               const InvertedIndex& b) {
  ASSERT_EQ(a.NumDocuments(), b.NumDocuments());
  for (uint32_t local = 0; local < a.NumDocuments(); ++local) {
    ASSERT_EQ(a.LocalToId(local), b.LocalToId(local)) << "local " << local;
    // The flat length column the match walk scores from.
    ASSERT_EQ(a.LengthAt(local), b.LengthAt(local)) << "local " << local;
    ASSERT_EQ(a.LengthAt(local), a.DocAt(local).length()) << "local " << local;
    ASSERT_EQ(b.LengthAt(local), b.DocAt(local).length()) << "local " << local;
  }
  EXPECT_EQ(a.stats().num_documents, b.stats().num_documents);
  EXPECT_EQ(a.stats().num_terms, b.stats().num_terms);
  EXPECT_EQ(a.stats().num_postings, b.stats().num_postings);
  EXPECT_EQ(a.stats().posting_bytes, b.stats().posting_bytes);
  EXPECT_EQ(a.stats().average_doc_length, b.stats().average_doc_length);
  const size_t vocab = a.corpus().vocabulary().size();
  for (TermId term = 0; term < vocab; ++term) {
    const PostingList& pa = a.Postings(term);
    const PostingList& pb = b.Postings(term);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << term;
    ASSERT_EQ(pa.ByteSize(), pb.ByteSize()) << "term " << term;
    ASSERT_EQ(pa.NumSkipEntries(), pb.NumSkipEntries()) << "term " << term;
    const auto da = pa.Decode();
    const auto db = pb.Decode();
    ASSERT_EQ(da.size(), db.size()) << "term " << term;
    for (size_t i = 0; i < da.size(); ++i) {
      ASSERT_EQ(da[i].local_doc, db[i].local_doc) << "term " << term;
      ASSERT_EQ(da[i].freq, db[i].freq) << "term " << term;
    }
  }
}

TEST(CorpusSnapshotTest, BorrowedStaticIndexIsEpochZero) {
  SyntheticCorpusGenerator generator(SmallConfig());
  const Corpus corpus = generator.Generate(120);
  const InvertedIndex index(corpus);
  const SnapshotHandle snapshot = CorpusSnapshot::Borrow(index);
  EXPECT_EQ(snapshot->epoch(), 0u);
  EXPECT_EQ(snapshot->num_shards(), 1u);
  EXPECT_EQ(snapshot->NumDocuments(), corpus.size());
  EXPECT_EQ(&snapshot->index(), &index);
  EXPECT_NE(snapshot->Fingerprint(), 0u);
}

TEST(CorpusManagerTest, InitialEpochIsOneAndEmptyDeltaIsNoop) {
  SyntheticCorpusGenerator generator(SmallConfig());
  CorpusManager manager(generator.Generate(150));
  EXPECT_EQ(manager.CurrentEpoch(), 1u);
  const SnapshotHandle before = manager.Current();
  const SnapshotHandle after = manager.Apply(CorpusDelta{});
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(manager.CurrentEpoch(), 1u);
}

TEST(CorpusManagerTest, ApplyPublishesNextEpochAndPinsOldOne) {
  SyntheticCorpusGenerator generator(SmallConfig());
  CorpusManager manager(generator.Generate(150));
  const SnapshotHandle old_epoch = manager.Current();
  const CorpusDelta delta =
      MakeDelta(generator, old_epoch->corpus(), /*add=*/30, /*remove=*/10);
  const SnapshotHandle new_epoch = manager.Apply(delta);
  EXPECT_EQ(new_epoch->epoch(), 2u);
  EXPECT_EQ(manager.CurrentEpoch(), 2u);
  EXPECT_EQ(new_epoch->NumDocuments(),
            old_epoch->NumDocuments() + delta.add.size() -
                delta.remove.size());
  // The old handle still reads its own epoch: removed documents are still
  // there, added ones absent.
  EXPECT_EQ(old_epoch->NumDocuments(), 150u);
  EXPECT_TRUE(old_epoch->Contains(delta.remove.front()));
  EXPECT_FALSE(new_epoch->Contains(delta.remove.front()));
  EXPECT_TRUE(new_epoch->Contains(delta.add.front().id()));
  EXPECT_FALSE(old_epoch->Contains(delta.add.front().id()));
  // Dense local ids stay ascending-by-DocId in every epoch.
  for (uint32_t local = 1; local < new_epoch->NumDocuments(); ++local) {
    EXPECT_LT(new_epoch->LocalToId(local - 1), new_epoch->LocalToId(local));
  }
}

TEST(CorpusManagerTest, MergedEpochIndexBitwiseEqualsFreshBuild) {
  // The heart of the determinism contract, across delta shapes: pure
  // append, pure removal, and mixed add+remove, chained over 4 epochs.
  SyntheticCorpusGenerator managed_gen(SmallConfig(21));
  SyntheticCorpusGenerator fresh_gen(SmallConfig(21));
  CorpusManager manager(managed_gen.Generate(300));
  Corpus reference = fresh_gen.Generate(300);

  struct Shape {
    size_t add;
    size_t remove;
  };
  const Shape shapes[] = {
      {60, 0},   // pure append (fast path: untouched terms copied)
      {0, 40},   // pure removal
      {50, 30},  // mixed
      {25, 25},  // size-neutral churn
  };
  for (const Shape& shape : shapes) {
    const CorpusDelta managed_delta = MakeDelta(
        managed_gen, manager.Current()->corpus(), shape.add, shape.remove);
    const CorpusDelta fresh_delta =
        MakeDelta(fresh_gen, reference, shape.add, shape.remove);
    const SnapshotHandle snapshot = manager.Apply(managed_delta);
    reference = ApplyDelta(reference, fresh_delta);
    const InvertedIndex fresh(reference);
    ExpectIndexesBitwiseEqual(snapshot->index(), fresh);
    EXPECT_EQ(snapshot->Fingerprint(),
              CorpusSnapshot::Borrow(fresh)->Fingerprint());
  }
}

TEST(CorpusManagerTest, FingerprintIsContentNotHistory) {
  // Two managers reaching the same document set along different delta
  // sequences fingerprint identically; different sets do not.
  SyntheticCorpusGenerator gen_a(SmallConfig(5));
  SyntheticCorpusGenerator gen_b(SmallConfig(5));
  CorpusManager one_step(gen_a.Generate(200));
  CorpusManager two_steps(gen_b.Generate(200));

  CorpusDelta big = MakeDelta(gen_a, one_step.Current()->corpus(), 80, 0);
  const SnapshotHandle a = one_step.Apply(big);

  CorpusDelta first = MakeDelta(gen_b, two_steps.Current()->corpus(), 80, 0);
  CorpusDelta second;
  // Same 80 additions, split across two epochs.
  second.add.assign(first.add.begin() + 40, first.add.end());
  first.add.resize(40);
  two_steps.Apply(first);
  const SnapshotHandle b = two_steps.Apply(second);

  EXPECT_EQ(a->epoch(), 2u);
  EXPECT_EQ(b->epoch(), 3u);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());

  CorpusDelta removal;
  removal.remove.push_back(b->corpus().documents().front().id());
  EXPECT_NE(two_steps.Apply(removal)->Fingerprint(), a->Fingerprint());
}

TEST(CorpusManagerTest, ShardedEpochHoldsOneFreshEquivalentIndex) {
  SyntheticCorpusGenerator generator(SmallConfig(11));
  CorpusManager::Options options;
  options.num_shards = 3;
  CorpusManager manager(generator.Generate(200), options);
  EXPECT_EQ(manager.Current()->num_shards(), 3u);

  const CorpusDelta delta =
      MakeDelta(generator, manager.Current()->corpus(), 40, 20);
  const SnapshotHandle snapshot = manager.Apply(delta);
  EXPECT_EQ(snapshot->num_shards(), 3u);

  // The epoch's one index — its three partitions are ranges of it — is
  // byte-equal to a fresh index of the same corpus, and the engine over
  // the manager answers bitwise like an engine over that fresh index.
  const InvertedIndex fresh(snapshot->corpus());
  ExpectIndexesBitwiseEqual(snapshot->index(), fresh);
  PlainSearchEngine plain(fresh, 5);
  ShardedSearchService sharded(manager, 5);
  const KeywordQuery query =
      KeywordQuery::Parse(snapshot->corpus().vocabulary(), "sports game");
  const SearchResult a = plain.Search(query);
  const SearchResult b = sharded.Search(query);
  ASSERT_EQ(a.docs.size(), b.docs.size());
  EXPECT_EQ(a.status, b.status);
  for (size_t i = 0; i < a.docs.size(); ++i) {
    EXPECT_EQ(a.docs[i].doc, b.docs[i].doc);
    EXPECT_EQ(a.docs[i].score, b.docs[i].score);
  }
}

TEST(CorpusManagerTest, EmptyDeltaKeepsIndexBitwiseIdentical) {
  // Edge case: an empty delta after real epochs — no new epoch, and the
  // published index is still bitwise the fresh build of its corpus.
  SyntheticCorpusGenerator managed_gen(SmallConfig(19));
  SyntheticCorpusGenerator fresh_gen(SmallConfig(19));
  CorpusManager manager(managed_gen.Generate(200));
  Corpus reference = fresh_gen.Generate(200);

  const CorpusDelta managed_delta =
      MakeDelta(managed_gen, manager.Current()->corpus(), 30, 10);
  const CorpusDelta fresh_delta = MakeDelta(fresh_gen, reference, 30, 10);
  manager.Apply(managed_delta);
  reference = ApplyDelta(reference, fresh_delta);

  const SnapshotHandle before = manager.Current();
  const SnapshotHandle after = manager.Apply(CorpusDelta{});
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(manager.CurrentEpoch(), 2u);
  ExpectIndexesBitwiseEqual(after->index(), InvertedIndex(reference));
}

TEST(CorpusManagerTest, DeltaDeletingEveryPostingOfATermDropsTheTerm) {
  SyntheticCorpusGenerator managed_gen(SmallConfig(23));
  SyntheticCorpusGenerator fresh_gen(SmallConfig(23));
  CorpusManager manager(managed_gen.Generate(200));
  const Corpus reference = fresh_gen.Generate(200);

  // Victim: the first term of the first document; the delta removes every
  // document containing it, so its posting list must vanish entirely.
  const Corpus& initial = manager.Current()->corpus();
  const TermId victim = initial.documents()[0].terms()[0].term;
  CorpusDelta delta;
  for (const Document& doc : initial.documents()) {
    if (doc.Contains(victim)) delta.remove.push_back(doc.id());
  }
  ASSERT_FALSE(delta.remove.empty());

  const SnapshotHandle snapshot = manager.Apply(delta);
  EXPECT_EQ(snapshot->index().Postings(victim).size(), 0u);
  EXPECT_TRUE(snapshot->index().Postings(victim).Decode().empty());
  // The term is invisible through document-level stats of the new epoch.
  EXPECT_EQ(snapshot->corpus().CountWhere([victim](const Document& doc) {
    return doc.Contains(victim);
  }),
            0u);
  const Corpus fresh_corpus = ApplyDelta(reference, delta);
  ExpectIndexesBitwiseEqual(snapshot->index(), InvertedIndex(fresh_corpus));
}

TEST(CorpusManagerTest, ReAddingARemovedDocIdRestoresBitwiseEquality) {
  SyntheticCorpusGenerator managed_gen(SmallConfig(29));
  SyntheticCorpusGenerator fresh_gen(SmallConfig(29));
  CorpusManager manager(managed_gen.Generate(200));
  const Corpus reference = fresh_gen.Generate(200);

  const Document victim = manager.Current()->corpus().documents()[42];
  CorpusDelta removal;
  removal.remove.push_back(victim.id());
  const SnapshotHandle removed = manager.Apply(removal);
  EXPECT_FALSE(removed->Contains(victim.id()));

  // Re-add the identical document under its original DocId: the merged
  // index must be bitwise the fresh build — same dense local slot (local
  // ids are ascending-by-DocId), same postings, same stats.
  CorpusDelta readd;
  readd.add.push_back(victim);
  const SnapshotHandle restored = manager.Apply(readd);
  EXPECT_TRUE(restored->Contains(victim.id()));
  EXPECT_EQ(restored->NumDocuments(), 200u);
  const Corpus fresh_corpus = ApplyDelta(ApplyDelta(reference, removal), readd);
  const InvertedIndex fresh(fresh_corpus);
  ExpectIndexesBitwiseEqual(restored->index(), fresh);
  // Remove-then-readd restores the original content, so the content-only
  // fingerprint matches the untouched reference build.
  const InvertedIndex original(reference);
  EXPECT_EQ(restored->Fingerprint(),
            CorpusSnapshot::Borrow(original)->Fingerprint());
}

TEST(CorpusManagerTest, ApplyAsyncPublishesFromPool) {
  SyntheticCorpusGenerator generator(SmallConfig(13));
  ThreadPool pool(2);
  CorpusManager::Options options;
  options.pool = &pool;
  CorpusManager manager(generator.Generate(150), options);

  CorpusDelta delta = MakeDelta(generator, manager.Current()->corpus(), 25, 5);
  std::atomic<uint64_t> published_epoch{0};
  manager.ApplyAsync(std::move(delta), [&](SnapshotHandle snapshot) {
    published_epoch.store(snapshot->epoch(), std::memory_order_release);
  });
  while (published_epoch.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(published_epoch.load(), 2u);
  EXPECT_EQ(manager.CurrentEpoch(), 2u);
}

TEST(CorpusManagerTest, ConcurrentQueriesPinTheirEpochDuringPublishes) {
  // The TSan-facing case: reader threads search (pinning whatever epoch is
  // current) while the main thread publishes a chain of deltas. Every
  // answer must be internally consistent; no reader is ever invalidated.
  SyntheticCorpusGenerator generator(SmallConfig(17));
  CorpusManager manager(generator.Generate(400));
  PlainSearchEngine engine(manager, 5);
  const KeywordQuery query = KeywordQuery::Parse(
      manager.Current()->corpus().vocabulary(), "sports game");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SearchResult result = engine.Search(query);
        ASSERT_LE(result.docs.size(), 5u);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int e = 0; e < 8; ++e) {
    manager.Apply(
        MakeDelta(generator, manager.Current()->corpus(), 30, 15));
  }
  while (answered.load(std::memory_order_acquire) < 100) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(manager.CurrentEpoch(), 9u);
}

}  // namespace
}  // namespace asup
