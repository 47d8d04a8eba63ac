#include "asup/index/postings.h"

#include <algorithm>

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
  const auto& skips = list_->skips_;
  // First later block that can contain a doc >= target.
  const auto it = std::lower_bound(
      skips.begin() + static_cast<ptrdiff_t>(block_) + 1, skips.end(),
      target, [](const SkipEntry& entry, uint32_t value) {
        return entry.last_doc < value;
      });
  if (it == skips.end()) {
    index_ = count_;  // exhausted: every doc id is < target
    return false;
  }
  LoadBlock(static_cast<size_t>(it - skips.begin()));
  index_ = block_ * kPostingBlock;
  return true;
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
