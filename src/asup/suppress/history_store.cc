#include "asup/suppress/history_store.h"

#include <algorithm>

#include "asup/obs/metrics.h"

namespace asup {

size_t QuerySignatureBit(const KeywordQuery& query) {
  return static_cast<size_t>(query.hash() % kSignatureBits);
}

uint32_t HistoryStore::Record(const KeywordQuery& query,
                              std::vector<DocId> answer_docs) {
  std::sort(answer_docs.begin(), answer_docs.end());
  const uint32_t index = static_cast<uint32_t>(queries_.size());
  const size_t bit = QuerySignatureBit(query);
  for (DocId doc : answer_docs) {
    DocHistory& history = FindOrAdd(doc);
    Append(history.query_indices, index);
    history.signature.Set(bit);
  }
  queries_.push_back(HistoricQuery{query, std::move(answer_docs)});
  ASUP_METRIC_COUNT("asup_suppress_history_records_total", 1);
  return index;
}

const QueryIndexList* HistoryStore::QueriesReturning(DocId doc) const {
  const DocHistory* history = Find(doc);
  return history != nullptr ? &history->query_indices : nullptr;
}

const QuerySignature* HistoryStore::SignatureOf(DocId doc) const {
  const DocHistory* history = Find(doc);
  return history != nullptr ? &history->signature : nullptr;
}

const HistoryStore::DocHistory* HistoryStore::Find(DocId doc) const {
  if (buckets_.empty()) return nullptr;
  const size_t mask = buckets_.size() - 1;
  for (size_t b = HomeBucket(doc);; b = (b + 1) & mask) {
    const Bucket& bucket = buckets_[b];
    if (bucket.slot == kNoSlot) return nullptr;
    if (bucket.doc == doc) return &per_doc_[bucket.slot];
  }
}

HistoryStore::DocHistory& HistoryStore::FindOrAdd(DocId doc) {
  if (2 * (per_doc_.size() + 1) > buckets_.size()) {
    // Double the table (16 buckets at first) and re-place every entry.
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(std::max<size_t>(16, 2 * old.size()), Bucket{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets_.size()));
    const size_t mask = buckets_.size() - 1;
    for (const Bucket& entry : old) {
      if (entry.slot == kNoSlot) continue;
      size_t b = HomeBucket(entry.doc);
      while (buckets_[b].slot != kNoSlot) b = (b + 1) & mask;
      buckets_[b] = entry;
    }
  }
  const size_t mask = buckets_.size() - 1;
  for (size_t b = HomeBucket(doc);; b = (b + 1) & mask) {
    Bucket& bucket = buckets_[b];
    if (bucket.slot == kNoSlot) {
      bucket = Bucket{doc, static_cast<uint32_t>(per_doc_.size())};
      return per_doc_.emplace_back();
    }
    if (bucket.doc == doc) return per_doc_[bucket.slot];
  }
}

void HistoryStore::Append(QueryIndexList& list, uint32_t index) {
  if (list.size_ == list.capacity_) {
    const size_t capacity = std::max<size_t>(4, 2 * list.capacity_);
    uint32_t* moved = Allocate(capacity);
    std::copy(list.begin(), list.end(), moved);
    list.data_ = moved;
    list.capacity_ = static_cast<uint32_t>(capacity);
  }
  list.data_[list.size_++] = index;
}

uint32_t* HistoryStore::Allocate(size_t capacity) {
  if (pool_.empty() || pool_used_ + capacity > kPoolBlock) {
    // The rest of the current block is abandoned; an oversized block is
    // full at once.
    pool_.emplace_back(new uint32_t[std::max(capacity, kPoolBlock)]);
    pool_used_ = 0;
  }
  uint32_t* out = pool_.back().get() + pool_used_;
  pool_used_ += capacity;
  return out;
}

}  // namespace asup
