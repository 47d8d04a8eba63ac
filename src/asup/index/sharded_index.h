#ifndef ASUP_INDEX_SHARDED_INDEX_H_
#define ASUP_INDEX_SHARDED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "asup/index/inverted_index.h"
#include "asup/text/corpus.h"

namespace asup {

/// Scatter partitions of one index (DESIGN.md §12, "Sharded execution").
///
/// A shard is not a separate index: it is a contiguous range of one
/// InvertedIndex's local ids, and a scatter task walks the whole index's
/// iterator tree from the range's first id to its end. Ids, statistics and
/// posting bytes are therefore the one index's own, and so are Θ_R bitmaps,
/// state snapshots and scores. The partition count only decides how a query
/// that fans out divides its walk.

/// `requested` clamped to [1, max(num_documents, 1)], so every partition of
/// a non-empty index holds at least one document (an empty index has one
/// empty partition).
inline size_t ClampShardCount(size_t requested, size_t num_documents) {
  return std::max<size_t>(
      1, std::min(requested, std::max<size_t>(num_documents, 1)));
}

/// Partition `s` of `num_shards` near-equal contiguous ranges over
/// `num_documents` local ids: [s·n/N, (s+1)·n/N). Ranges are in id order,
/// disjoint and covering, and their sizes differ by at most one.
inline DocRange ShardRange(size_t num_documents, size_t num_shards,
                           size_t s) {
  return {static_cast<uint32_t>(s * num_documents / num_shards),
          static_cast<uint32_t>((s + 1) * num_documents / num_shards)};
}

/// A static sharded deployment: one InvertedIndex over `corpus` plus its
/// clamped partition count, which a MatchingEngine built over it scatters
/// across.
class ShardedInvertedIndex : public InvertedIndex {
 public:
  /// Builds the index over `corpus` (borrowed; must outlive the index) and
  /// keeps `num_shards` clamped by ClampShardCount.
  ShardedInvertedIndex(const Corpus& corpus, size_t num_shards)
      : InvertedIndex(corpus),
        num_shards_(ClampShardCount(num_shards, NumDocuments())) {}

  size_t NumShards() const { return num_shards_; }

 private:
  size_t num_shards_;
};

}  // namespace asup

#endif  // ASUP_INDEX_SHARDED_INDEX_H_
