#include "asup/index/corpus_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "asup/obs/trace.h"
#include "asup/util/check.h"
#include "asup/util/hash.h"

namespace asup {

namespace {

/// Sentinel for "document removed in this epoch transition".
constexpr uint32_t kRemovedLocal = UINT32_MAX;

}  // namespace

std::shared_ptr<const CorpusSnapshot> CorpusSnapshot::Borrow(
    const InvertedIndex& index) {
  auto snap = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snap->index_ = &index;
  return snap;
}

std::shared_ptr<const CorpusSnapshot> CorpusSnapshot::Borrow(
    const ShardedInvertedIndex& sharded) {
  auto snap = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snap->index_ = &sharded;
  snap->num_shards_ = sharded.NumShards();
  return snap;
}

uint64_t CorpusSnapshot::Fingerprint() const {
  uint64_t cached = fingerprint_.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  const size_t n = NumDocuments();
  uint64_t h = Mix64(0x61737570u ^ static_cast<uint64_t>(n));  // "asup"
  for (uint32_t local = 0; local < n; ++local) {
    const Document& doc = corpus().Get(LocalToId(local));
    h = HashCombine(h, Mix64(doc.id()));
    h = HashCombine(h, Mix64(doc.length()));
    for (const TermFreq& entry : doc.terms()) {
      h = HashCombine(
          h, Mix64((static_cast<uint64_t>(entry.term) << 32) | entry.freq));
    }
  }
  if (h == 0) h = 1;  // keep 0 free as the "not yet computed" sentinel
  fingerprint_.store(h, std::memory_order_release);
  return h;
}

CorpusManager::CorpusManager(Corpus initial)
    : CorpusManager(std::move(initial), Options()) {}

CorpusManager::CorpusManager(Corpus initial, Options options)
    : options_(options) {
  auto snap = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snap->epoch_ = 1;
  auto corpus = std::make_unique<const Corpus>(std::move(initial));
  snap->owned_index_ = std::make_unique<const InvertedIndex>(*corpus);
  snap->num_shards_ = ClampShardCount(options_.num_shards, corpus->size());
  snap->owned_corpus_ = std::move(corpus);
  snap->index_ = snap->owned_index_.get();
  Publish(std::move(snap));
  ASUP_METRIC_GAUGE_SET("asup_index_epoch_current", 1);
}

SnapshotHandle CorpusManager::Apply(const CorpusDelta& delta) {
  MutexLock guard(apply_mutex_);
  SnapshotHandle base = Current();
  if (delta.empty()) return base;
  SnapshotHandle next;
  {
    ASUP_TRACE_STAGE(obs::Stage::kEpochBuild);
    next = BuildNextLocked(*base, delta);
  }
  Publish(next);
  ASUP_METRIC_GAUGE_SET("asup_index_epoch_current", next->epoch());
  ASUP_METRIC_COUNT("asup_index_epoch_publishes_total", 1);
  ASUP_METRIC_COUNT("asup_index_epoch_docs_added_total", delta.add.size());
  ASUP_METRIC_COUNT("asup_index_epoch_docs_removed_total",
                    delta.remove.size());
  return next;
}

void CorpusManager::ApplyAsync(CorpusDelta delta,
                               std::function<void(SnapshotHandle)> done) {
  ASUP_CHECK(options_.pool != nullptr);
  options_.pool->Submit(
      [this, delta = std::move(delta), done = std::move(done)]() {
        SnapshotHandle published = Apply(delta);
        if (done) done(std::move(published));
      });
}

SnapshotHandle CorpusManager::BuildNextLocked(const CorpusSnapshot& base,
                                              const CorpusDelta& delta) const {
  const InvertedIndex& old = base.index();
  auto corpus = std::make_unique<const Corpus>(ApplyDelta(base.corpus(), delta));

  std::vector<DocId> removed_ids(delta.remove);
  std::sort(removed_ids.begin(), removed_ids.end());
  std::vector<DocId> added_ids;
  added_ids.reserve(delta.add.size());
  for (const Document& doc : delta.add) added_ids.push_back(doc.id());
  std::sort(added_ids.begin(), added_ids.end());

  // New local-id assignment: pointers into the new corpus, ascending by id
  // (the same rule as InvertedIndex's fresh build).
  std::vector<const Document*> docs_by_local;
  docs_by_local.reserve(corpus->size());
  for (const auto& doc : corpus->documents()) docs_by_local.push_back(&doc);
  std::sort(docs_by_local.begin(), docs_by_local.end(),
            [](const Document* a, const Document* b) {
              return a->id() < b->id();
            });

  // Old local -> new local. Both id sequences are ascending and disjoint,
  // so the remap is monotone over survivors: remapped posting streams stay
  // in ascending order and can be merged with delta postings directly.
  std::vector<uint32_t> remap(old.NumDocuments());
  {
    size_t removed_pos = 0;
    size_t added_pos = 0;
    uint32_t next_local = 0;
    for (uint32_t local = 0; local < old.NumDocuments(); ++local) {
      const DocId id = old.LocalToId(local);
      while (added_pos < added_ids.size() && added_ids[added_pos] < id) {
        ++added_pos;  // an added document slots in before this survivor
        ++next_local;
      }
      if (removed_pos < removed_ids.size() && removed_ids[removed_pos] == id) {
        ++removed_pos;
        remap[local] = kRemovedLocal;
      } else {
        remap[local] = next_local++;
      }
    }
    ASUP_CHECK_EQ(removed_pos, removed_ids.size());
  }

  // Postings contributed by the added documents, per term, in ascending
  // new-local order (docs_by_local is ascending; two-pointer against the
  // sorted added ids finds each added document's new local id).
  std::vector<std::vector<Posting>> delta_postings(
      corpus->vocabulary().size());
  {
    size_t added_pos = 0;
    for (uint32_t local = 0;
         local < docs_by_local.size() && added_pos < added_ids.size();
         ++local) {
      if (docs_by_local[local]->id() != added_ids[added_pos]) continue;
      ++added_pos;
      for (const TermFreq& entry : docs_by_local[local]->terms()) {
        ASUP_DCHECK_LT(entry.term, delta_postings.size());
        delta_postings[entry.term].push_back({local, entry.freq});
      }
    }
    ASUP_CHECK_EQ(added_pos, added_ids.size());
  }

  // Pure append (no removals, every added id beyond the old id range): the
  // remap is the identity, so every untouched term's compressed posting
  // list is byte-for-byte reusable and is copied instead of re-encoded.
  const bool pure_append =
      removed_ids.empty() &&
      (old.NumDocuments() == 0 || added_ids.empty() ||
       added_ids.front() > old.LocalToId(
                               static_cast<uint32_t>(old.NumDocuments() - 1)));

  std::vector<PostingList> postings(corpus->vocabulary().size());
  for (size_t term = 0; term < postings.size(); ++term) {
    const PostingList& old_list =
        old.Postings(static_cast<TermId>(term));
    const std::vector<Posting>& additions = delta_postings[term];
    if (pure_append && additions.empty()) {
      if (!old_list.empty()) postings[term] = old_list;
      continue;
    }
    if (old_list.empty() && additions.empty()) continue;
    PostingList::Builder builder;
    size_t add_pos = 0;
    for (PostingList::Iterator it(&old_list); it.Valid(); it.Next()) {
      const Posting& posting = it.Get();
      const uint32_t new_local = remap[posting.local_doc];
      if (new_local == kRemovedLocal) continue;
      while (add_pos < additions.size() &&
             additions[add_pos].local_doc < new_local) {
        builder.Add(additions[add_pos].local_doc, additions[add_pos].freq);
        ++add_pos;
      }
      builder.Add(new_local, posting.freq);
    }
    while (add_pos < additions.size()) {
      builder.Add(additions[add_pos].local_doc, additions[add_pos].freq);
      ++add_pos;
    }
    if (builder.size() > 0) postings[term] = std::move(builder).Build();
  }

  // Stats with the exact arithmetic of the fresh InvertedIndex build, so a
  // maintained and a freshly built epoch are indistinguishable (down to
  // the double division producing average_doc_length).
  IndexStats stats;
  stats.num_documents = docs_by_local.size();
  uint64_t total_length = 0;
  for (const Document* doc : docs_by_local) total_length += doc->length();
  stats.average_doc_length =
      docs_by_local.empty()
          ? 0.0
          : static_cast<double>(total_length) /
                static_cast<double>(docs_by_local.size());
  ASUP_CHECK(std::isfinite(stats.average_doc_length));
  ASUP_CHECK(stats.average_doc_length >= 0.0);
  for (size_t term = 0; term < postings.size(); ++term) {
    const size_t df = postings[term].size();
    if (df == 0) continue;
    ++stats.num_terms;
    stats.num_postings += df;
    stats.posting_bytes += postings[term].ByteSize();
  }

  auto index = std::unique_ptr<InvertedIndex>(new InvertedIndex());
  index->corpus_ = corpus.get();
  index->SetDocsByLocal(std::move(docs_by_local));
  index->postings_ = std::move(postings);
  index->stats_ = stats;

  auto snap = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snap->epoch_ = base.epoch() + 1;
  snap->owned_index_ = std::move(index);
  snap->num_shards_ = ClampShardCount(options_.num_shards, corpus->size());
  snap->owned_corpus_ = std::move(corpus);
  snap->index_ = snap->owned_index_.get();
  return snap;
}

}  // namespace asup
