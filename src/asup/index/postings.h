#ifndef ASUP_INDEX_POSTINGS_H_
#define ASUP_INDEX_POSTINGS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "asup/index/block_codec.h"
#include "asup/util/check.h"

namespace asup {

/// Immutable block-compressed posting list: ascending local doc ids,
/// partitioned into fixed-size blocks of kPostingBlock postings, each block
/// group-varint encoded (see block_codec.h) and fronted by a skip entry
/// carrying its first/last doc id and byte offset. `Iterator::SkipTo`
/// gallops within the decoded block, or binary-searches the skip table
/// and decodes at most one block — the
/// standard skip-pointer layout of enterprise search indexes, and what
/// keeps conjunctive intersections of a rare and a common term cheap.
class PostingList {
 public:
  /// Postings per block (and per skip entry).
  static constexpr uint32_t kPostingBlock =
      static_cast<uint32_t>(blockcodec::kMaxBlockPostings);

  /// Per-block skip metadata: one entry per block, including the first.
  struct SkipEntry {
    uint32_t first_doc;  // local doc id of the block's first posting
    uint32_t last_doc;   // local doc id of the block's last posting
    uint32_t offset;     // byte offset of the block's encoding in bytes_
  };

  /// Exact encoded footprint of one skip entry: three fixed-width 32-bit
  /// fields. Deliberately *not* sizeof(SkipEntry) — ByteSize() reports the
  /// format's cost, which must not drift with struct padding or layout.
  static constexpr size_t kSkipEntryEncodedBytes = 3 * sizeof(uint32_t);

  /// Incremental builder; postings must be added in strictly increasing
  /// local doc id order.
  class Builder {
   public:
    /// Appends one posting. Requires local_doc > previous local_doc and
    /// freq >= 1.
    void Add(uint32_t local_doc, uint32_t freq);

    /// Finalizes the list. The builder must not be reused.
    PostingList Build() &&;

    size_t size() const { return count_; }

   private:
    /// Encodes the buffered postings as one block.
    void Flush();

    std::vector<uint8_t> bytes_;
    std::vector<SkipEntry> skips_;
    std::vector<Posting> pending_;
    uint32_t last_doc_ = 0;
    size_t count_ = 0;
  };

  /// Forward iterator over the compressed list. Decodes block-at-a-time
  /// into an internal buffer; Next() within a block is an array read.
  class Iterator {
   public:
    explicit Iterator(const PostingList* list);

    /// True if the iterator points at a posting.
    bool Valid() const { return index_ < count_; }

    /// Current posting. Requires Valid().
    Posting Get() const { return {buffer_.docs[pos_], buffer_.freqs[pos_]}; }

    /// Advances to the next posting. Requires Valid(). Inline: within a
    /// block this is two increments and two compares; only the per-block
    /// reload is out of line.
    void Next() {
      ASUP_DCHECK(Valid());
      ++index_;
      ++pos_;
      if (index_ < count_ && pos_ == buffer_.count) LoadBlock(block_ + 1);
    }

    /// Advances until Get().local_doc >= target (or exhaustion).
    ///
    /// Contract: SkipTo only ever moves *forward*. A target at or behind
    /// the current posting's doc id — which multi-way intersections
    /// legitimately produce when the driving list lags another list — is a
    /// documented no-op, not an error. Postconditions (ASUP_DCHECKed):
    /// index() never decreases, and whenever the iterator moved and is
    /// still Valid(), Get().local_doc >= target.
    ///
    /// Inline for a target inside the current block: in a dense
    /// intersection it is usually 1–3 postings ahead, so the search gallops
    /// from the current posting (1, 2, 4, ... ahead) and binary-searches
    /// only the last gap. A target past the block takes the out-of-line
    /// jump (skip-table search, one block decode), and the gallop then
    /// starts at the new block's first posting, which may itself be the
    /// answer.
    void SkipTo(uint32_t target) {
      if (!Valid() || buffer_.docs[pos_] >= target) return;
      ASUP_CONTRACTS_ONLY(const size_t index_before = index_;)
      size_t from = pos_ + 1;  // the current posting is < target
      if (buffer_.docs[buffer_.count - 1] < target) {
        if (!JumpToBlockOf(target)) return;  // exhausted
        from = 0;
      }
      // The block's last doc is >= target, so the gallop stops inside it.
      const uint32_t* docs = buffer_.docs;
      const size_t last = buffer_.count - 1;
      size_t lo = from;
      size_t hi = from;
      for (size_t step = 1; docs[hi] < target; step <<= 1) {
        lo = hi + 1;
        hi = std::min(hi + step, last);
      }
      // docs[lo - 1] < target <= docs[hi] (lo == from: nothing behind).
      const auto found = static_cast<size_t>(
          std::lower_bound(docs + lo, docs + hi, target) - docs);
      index_ += found - pos_;
      pos_ = found;
      ASUP_CONTRACTS_ONLY(
          ASUP_DCHECK(index_ >= index_before);
          ASUP_DCHECK(!Valid() || buffer_.docs[pos_] >= target);)
    }

    /// Index of the current posting within the list.
    size_t index() const { return index_; }

   private:
    /// Decodes block `block` into buffer_ and points pos_ at its start.
    void LoadBlock(size_t block);

    /// SkipTo's block jump, for a target past the current block: loads the
    /// first later block whose last doc is >= target and returns true, or
    /// exhausts the iterator and returns false.
    bool JumpToBlockOf(uint32_t target);

    const PostingList* list_;
    size_t count_ = 0;  // cached list_->count_: Valid() is one compare
    size_t block_ = 0;
    size_t pos_ = 0;    // position within buffer_
    size_t index_ = 0;  // global posting index
    blockcodec::DecodedBlock buffer_;
  };

  PostingList() = default;

  /// Number of postings (the term's document frequency).
  size_t size() const { return count_; }

  bool empty() const { return count_ == 0; }

  /// Compressed size in bytes: encoded payload plus the exact encoded
  /// footprint of the skip table (kSkipEntryEncodedBytes per block).
  size_t ByteSize() const {
    return bytes_.size() + skips_.size() * kSkipEntryEncodedBytes;
  }

  /// Encoded payload bytes only (no skip table).
  size_t PayloadBytes() const { return bytes_.size(); }

  /// Number of skip entries — one per block, including the first.
  size_t NumSkipEntries() const { return skips_.size(); }

  /// Decodes the full list, block at a time.
  std::vector<Posting> Decode() const;

  Iterator begin() const { return Iterator(this); }

 private:
  friend class Builder;
  friend class Iterator;

  /// Number of postings in `block` (kPostingBlock except possibly the
  /// last).
  size_t BlockSize(size_t block) const {
    return block + 1 < skips_.size()
               ? kPostingBlock
               : count_ - block * kPostingBlock;
  }

  std::vector<uint8_t> bytes_;
  std::vector<SkipEntry> skips_;
  size_t count_ = 0;
};

}  // namespace asup

#endif  // ASUP_INDEX_POSTINGS_H_
