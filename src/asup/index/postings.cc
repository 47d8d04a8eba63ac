#include "asup/index/postings.h"

#include <algorithm>
#include <memory>

#include "asup/util/check.h"

namespace asup {

void PostingList::Builder::Add(uint32_t local_doc, uint32_t freq) {
  ASUP_DCHECK(freq >= 1);
  ASUP_DCHECK(count_ == 0 || local_doc > last_doc_);
  pending_.push_back({local_doc, freq});
  last_doc_ = local_doc;
  ++count_;
  if (pending_.size() == kPostingBlock) Flush();
}

void PostingList::Builder::Flush() {
  if (pending_.empty()) return;
  // Skip-table offsets are 32-bit; a single term's payload approaching
  // 4 GiB would mean a corpus far beyond this codebase's design envelope.
  ASUP_CHECK_LE(bytes_.size(), size_t{UINT32_MAX});
  skips_.push_back({pending_.front().local_doc, pending_.back().local_doc,
                    static_cast<uint32_t>(bytes_.size())});
  blockcodec::EncodeBlock(pending_, bytes_);
  pending_.clear();
}

PostingList PostingList::Builder::Build() && {
  Flush();
  PostingList list;
  list.bytes_ = std::move(bytes_);
  list.bytes_.shrink_to_fit();
  list.skips_ = std::move(skips_);
  list.skips_.shrink_to_fit();
  list.count_ = count_;
  if (count_ > 0 && kDenseRatio * count_ >= uint64_t{last_doc_} + 1) {
    auto dense = std::make_shared<DenseIndex>();
    const size_t num_words = last_doc_ / 64 + 1;
    dense->words.assign(num_words, 0);
    dense->freq_offsets.reserve(list.skips_.size());
    uint32_t docs[kPostingBlock];
    for (size_t block = 0; block < list.skips_.size(); ++block) {
      size_t offset = list.skips_[block].offset;
      const size_t count = list.BlockSize(block);
      blockcodec::DecodeDocs(list.bytes_, offset, count, docs);
      dense->freq_offsets.push_back(static_cast<uint32_t>(offset));
      for (size_t i = 0; i < count; ++i) {
        dense->words[docs[i] / 64] |= uint64_t{1} << (docs[i] % 64);
      }
    }
    dense->ranks.resize(num_words);
    uint32_t rank = 0;
    for (size_t word = 0; word < num_words; ++word) {
      dense->ranks[word] = rank;
      rank += static_cast<uint32_t>(PopCount(dense->words[word]));
    }
    ASUP_CHECK_EQ(size_t{rank}, count_);
    list.dense_ = std::move(dense);
  }
  return list;
}

PostingList::Iterator::Iterator(const PostingList* list)
    : list_(list), count_(list->count_) {
  if (Valid()) LoadBlock(0);
}

void PostingList::Iterator::LoadBlock(size_t block) {
  block_ = block;
  pos_ = 0;
  // DecodeBlock is bounds-checked in every build type, so a corrupt skip
  // offset or payload aborts instead of reading out of bounds.
  size_t offset = list_->skips_[block].offset;
  blockcodec::DecodeBlock(list_->bytes_, offset, list_->BlockSize(block),
                          buffer_);
}

bool PostingList::Iterator::JumpToBlockOf(uint32_t target) {
  // First later block that can contain a doc >= target: gallop from the
  // next block (1, 2, 4, ... ahead), then binary-search the last gap, so a
  // short jump reads a few skip entries wherever the walk is in the table.
  const SkipEntry* skips = list_->skips_.data();
  const size_t end = list_->skips_.size();
  size_t lo = block_ + 1;
  size_t hi = lo;
  for (size_t step = 1; hi < end && skips[hi].last_doc < target; step <<= 1) {
    lo = hi + 1;
    hi += step;
  }
  // Blocks before lo end below target; hi (if < end) ends at or past it.
  const SkipEntry* found = std::lower_bound(
      skips + lo, skips + std::min(hi, end), target,
      [](const SkipEntry& entry, uint32_t value) {
        return entry.last_doc < value;
      });
  if (found == skips + end) {
    index_ = count_;  // exhausted: every doc id is < target
    return false;
  }
  LoadBlock(static_cast<size_t>(found - skips));
  index_ = block_ * kPostingBlock;
  return true;
}

PostingList::Membership PostingList::membership() const {
  ASUP_DCHECK(dense());
  Membership view;
  view.words_ = dense_->words.data();
  view.ranks_ = dense_->ranks.data();
  view.num_words_ = dense_->words.size();
  view.count_ = count_;
  return view;
}

void PostingList::DecodeBlockFreqs(size_t block, uint32_t* freqs) const {
  ASUP_DCHECK(dense());
  blockcodec::DecodeFreqs(bytes_, dense_->freq_offsets[block],
                          BlockSize(block), freqs);
}

std::vector<Posting> PostingList::Decode() const {
  std::vector<Posting> out;
  out.reserve(count_);
  blockcodec::DecodedBlock buffer;
  for (size_t block = 0; block < skips_.size(); ++block) {
    size_t offset = skips_[block].offset;
    blockcodec::DecodeBlock(bytes_, offset, BlockSize(block), buffer);
    for (size_t i = 0; i < buffer.count; ++i) {
      out.push_back({buffer.docs[i], buffer.freqs[i]});
    }
  }
  return out;
}

}  // namespace asup
