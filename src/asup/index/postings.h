#ifndef ASUP_INDEX_POSTINGS_H_
#define ASUP_INDEX_POSTINGS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "asup/index/block_codec.h"
#include "asup/util/check.h"

namespace asup {

/// Immutable block-compressed posting list: ascending local doc ids,
/// partitioned into fixed-size blocks of kPostingBlock postings, each block
/// group-varint encoded (see block_codec.h) and fronted by a skip entry
/// carrying its first/last doc id and byte offset. `Iterator::SkipTo`
/// gallops within the decoded block, or gallops over the skip table and
/// decodes at most one block — the standard skip-pointer layout of
/// enterprise search indexes, and what keeps conjunctive intersections of
/// a rare and a common term cheap.
///
/// A dense list (kDenseRatio × size() >= last doc + 1) also carries a
/// membership bitmap over [0, last doc], a rank table and each block's
/// freq-stream offset, built once by Builder::Build. The bitmap holds one
/// bit per id, and the list one posting per kDenseRatio ids or more, so the
/// bitmap costs at most one byte per posting, the least its doc stream
/// costs. A conjunction probes a dense list (Membership::Contains) instead
/// of stepping it, and reads a probed posting's frequency by rank
/// (RankedFreqs). None of it is part of the encoded format: the bytes,
/// ByteSize() and the skip table are the same with or without it, and the
/// rule depends only on the list, so a maintained and a freshly built list
/// agree on it.
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

  /// The density rule: a list is dense when it holds at least one of every
  /// kDenseRatio ids up to its last doc.
  static constexpr uint64_t kDenseRatio = 8;

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

  /// A dense list's bitmap and rank table as raw arrays: what a probe loop
  /// holds, so a probe reads its bitmap word without chasing pointers
  /// through the list. Valid while the list lives.
  class Membership {
   public:
    /// True when `local` is in the list; any id, including ids past the
    /// last doc.
    bool Contains(uint32_t local) const {
      const size_t word = local / 64;
      return word < num_words_ && ((words_[word] >> (local % 64)) & 1) != 0;
    }

    /// Number of postings whose doc is below `local`: the posting index
    /// of a doc in the list, and the list's size past its last doc.
    size_t Rank(uint32_t local) const {
      const size_t word = local / 64;
      if (word >= num_words_) return count_;
      const uint64_t below = words_[word] & ((uint64_t{1} << (local % 64)) - 1);
      return ranks_[word] + PopCount(below);
    }

   private:
    friend class PostingList;

    const uint64_t* words_ = nullptr;  // bit d set iff doc d is listed
    const uint32_t* ranks_ = nullptr;  // postings before each word
    size_t num_words_ = 0;
    size_t count_ = 0;
  };

  /// A dense list's frequencies by posting index: decodes one block's
  /// freq stream at a time, so reads in ascending order decode each block
  /// once. The reader of a probed conjunction term.
  class RankedFreqs {
   public:
    /// Requires list->dense().
    explicit RankedFreqs(const PostingList* list)
        : list_(list), membership_(list->membership()) {}

    /// Frequency of `local`, which must be in the list.
    uint32_t FreqOf(uint32_t local) {
      ASUP_CONTRACTS_ONLY(ASUP_DCHECK(membership_.Contains(local));)
      const size_t rank = membership_.Rank(local);
      ASUP_CONTRACTS_ONLY(ASUP_DCHECK_LT(rank, list_->size());)
      const size_t block = rank / kPostingBlock;
      if (block != block_) {
        list_->DecodeBlockFreqs(block, freqs_);
        block_ = block;
      }
      return freqs_[rank % kPostingBlock];
    }

   private:
    const PostingList* list_;
    Membership membership_;
    size_t block_ = SIZE_MAX;  // whose freqs freqs_ holds
    uint32_t freqs_[kPostingBlock];
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

  /// True when the list meets the density rule (kDenseRatio) and so
  /// carries a membership bitmap and a rank table.
  bool dense() const { return dense_ != nullptr; }

  /// The list's bitmap and rank table. Requires dense().
  Membership membership() const;

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

  /// Set bits of `bits`, inline: the build targets baseline x86-64, where
  /// std::popcount is a libgcc call.
  static size_t PopCount(uint64_t bits) {
    bits -= (bits >> 1) & 0x5555555555555555u;
    bits = (bits & 0x3333333333333333u) + ((bits >> 2) & 0x3333333333333333u);
    bits = (bits + (bits >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return static_cast<size_t>((bits * 0x0101010101010101u) >> 56);
  }

  /// Decodes block `block`'s freq stream alone into `freqs`. Requires
  /// dense().
  void DecodeBlockFreqs(size_t block, uint32_t* freqs) const;

  /// A dense list's probe structures; shared and immutable, so copying a
  /// list (a pure-append publish) copies a pointer.
  struct DenseIndex {
    std::vector<uint64_t> words;         // bit d set iff doc d is listed
    std::vector<uint32_t> ranks;         // postings before each word
    std::vector<uint32_t> freq_offsets;  // each block's freq stream
  };

  std::vector<uint8_t> bytes_;
  std::vector<SkipEntry> skips_;
  size_t count_ = 0;
  std::shared_ptr<const DenseIndex> dense_;  // null unless dense
};

}  // namespace asup

#endif  // ASUP_INDEX_POSTINGS_H_
