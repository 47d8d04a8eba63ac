#ifndef ASUP_SUPPRESS_HISTORY_STORE_H_
#define ASUP_SUPPRESS_HISTORY_STORE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "asup/engine/query.h"
#include "asup/text/document.h"

namespace asup {

/// Width of the per-document query signature. The paper uses 1000-bit
/// vectors (Section 5.3).
inline constexpr size_t kSignatureBits = 1000;

/// Returns the signature bit of a query: its canonical-string hash mapped
/// into [0, kSignatureBits).
size_t QuerySignatureBit(const KeywordQuery& query);

/// A document's Section 5.3 query signature: kSignatureBits bits held
/// inline, so recording a document allocates no bit buffer.
class QuerySignature {
 public:
  /// Sets bit `i`. Requires i < kSignatureBits.
  void Set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }

  /// Returns bit `i`. Requires i < kSignatureBits.
  bool Test(size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }

  /// Number of one bits.
  size_t Count() const {
    size_t count = 0;
    for (uint64_t word : words_) count += std::popcount(word);
    return count;
  }

  /// Calls `visit(bit)` for every one bit, ascending.
  template <typename Visit>
  void ForEachSetBit(Visit&& visit) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        visit(w * 64 + static_cast<size_t>(std::countr_zero(word)));
      }
    }
  }

 private:
  std::array<uint64_t, (kSignatureBits + 63) / 64> words_{};
};

/// The historic queries that returned one document: indices into the
/// history, in record order. A view into the store's index pool.
class QueryIndexList {
 public:
  using value_type = uint32_t;
  using iterator = const uint32_t*;
  using const_iterator = const uint32_t*;

  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

  friend bool operator==(const QueryIndexList& list,
                         const std::vector<uint32_t>& indices) {
    return std::equal(list.begin(), list.end(), indices.begin(),
                      indices.end());
  }

 private:
  friend class HistoryStore;
  uint32_t* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
};

/// AS-ARBI's record of past (non-virtual) query answers.
///
/// Two structures per the paper: for every returned document, (a) the array
/// of historic queries that returned it, and (b) a 1000-bit vector with one
/// bit set per such query (hash of the query string). The bit vectors give
/// a cheap upper bound for the cover trigger before exact enumeration.
///
/// Layout, chosen so that recording a document allocates nothing of its
/// own: per-document histories sit in one array in first-seen order, each
/// with its signature inline; their query-index lists live in a shared
/// pool of fixed-size blocks, a list moving to the pool's end with doubled
/// capacity when it fills; and an open-addressing table over one array
/// maps a DocId to its slot. Document ids may be sparse anywhere in the
/// 32-bit range: the table is sized by the documents seen, never by the id
/// range.
class HistoryStore {
 public:
  /// One historic query and the answer it received from AS-SIMPLE.
  struct HistoricQuery {
    KeywordQuery query;
    /// Returned documents, ascending by id (for O(log) intersection).
    std::vector<DocId> answer;
  };

  HistoryStore() = default;
  HistoryStore(HistoryStore&&) = default;
  HistoryStore& operator=(HistoryStore&&) = default;
  /// Move-only: the lists point into this store's own pool.
  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  /// Records an answered query. Returns its index in the history.
  /// `answer_docs` need not be sorted.
  uint32_t Record(const KeywordQuery& query, std::vector<DocId> answer_docs);

  /// Number of recorded queries.
  size_t NumQueries() const { return queries_.size(); }

  /// The idx-th recorded query.
  const HistoricQuery& QueryAt(size_t idx) const { return queries_[idx]; }

  /// Indices (into the history) of queries whose answers contained `doc`,
  /// or nullptr if no historic query returned it. Valid until the next
  /// Record.
  const QueryIndexList* QueriesReturning(DocId doc) const;

  /// The document's 1000-bit query signature, or nullptr if unseen. Valid
  /// until the next Record.
  const QuerySignature* SignatureOf(DocId doc) const;

  /// Number of documents appearing in at least one recorded answer.
  size_t NumDocumentsSeen() const { return per_doc_.size(); }

 private:
  struct DocHistory {
    QueryIndexList query_indices;
    QuerySignature signature;
  };

  /// One table entry: a document and its slot in per_doc_, or an empty
  /// entry (slot kNoSlot).
  struct Bucket {
    DocId doc = 0;
    uint32_t slot = kNoSlot;
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// `doc`'s history, or nullptr if unseen.
  const DocHistory* Find(DocId doc) const;

  /// `doc`'s history, appended empty if unseen.
  DocHistory& FindOrAdd(DocId doc);

  /// Appends `index` to `list`, first moving the list to fresh pool space
  /// of twice its capacity when it is full.
  void Append(QueryIndexList& list, uint32_t index);

  /// `capacity` uninitialized entries at the end of the pool.
  uint32_t* Allocate(size_t capacity);

  /// First bucket probed for `doc` (Fibonacci hashing: the top bits of the
  /// product spread sequential ids across the table).
  size_t HomeBucket(DocId doc) const {
    return static_cast<size_t>((uint64_t{doc} * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }

  std::vector<HistoricQuery> queries_;
  /// Per-document histories, in first-seen order.
  std::vector<DocHistory> per_doc_;
  /// DocId → per_doc_ slot, linear probing over a power-of-two table kept
  /// at most half full. Entries are never removed (epoch compaction builds
  /// a new store).
  std::vector<Bucket> buckets_;
  /// 64 − log2(buckets_.size()).
  unsigned shift_ = 64;
  /// The query-index pool: blocks of kPoolBlock entries, filled front to
  /// back (a list larger than a block gets a block of its own). Block
  /// addresses never change, so lists survive a move of the store.
  static constexpr size_t kPoolBlock = 16384;
  std::vector<std::unique_ptr<uint32_t[]>> pool_;
  size_t pool_used_ = 0;  // entries used in pool_.back()
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_HISTORY_STORE_H_
