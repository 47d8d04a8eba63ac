#ifndef ASUP_INDEX_CORPUS_MANAGER_H_
#define ASUP_INDEX_CORPUS_MANAGER_H_

/// Dynamic corpus epochs.
///
/// The paper models the corpus Θ as static, but an enterprise engine's
/// collection churns: documents are added and deleted between queries. This
/// layer versions the corpus into immutable *epoch snapshots*: a
/// `CorpusManager` owns the current `CorpusSnapshot`, applies batched
/// add/remove deltas by building the next snapshot off to the side
/// (incrementally merging the previous epoch's posting lists instead of
/// re-tokenizing unchanged documents), and publishes it with a single
/// guarded shared_ptr swap. In-flight queries keep reading whatever epoch
/// they pinned — publication never blocks or mutates a reader.
///
/// Determinism contract (what the equivalence tests pin down): the merged
/// index of an epoch is *bitwise identical* — posting bytes, skip entries,
/// stats arithmetic — to an InvertedIndex built fresh from the epoch's
/// corpus. Suppression state migrated across epochs is therefore
/// indistinguishable from state built against a fresh engine, and state_io
/// snapshots stay byte-stable.
///
/// Every epoch holds exactly one InvertedIndex. A sharded deployment
/// (Options::num_shards) is that same index plus a partition count: shards
/// are contiguous local-id ranges of it (index/sharded_index.h), so a
/// publish merges one index and rebuilds nothing per shard.
///
/// Epoch numbering: snapshots borrowed from a static index (the legacy
/// construction path, `CorpusSnapshot::Borrow`) are epoch 0 and never
/// change; a manager's initial snapshot is epoch 1 and every published
/// delta increments it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/text/corpus_delta.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/thread_pool.h"

namespace asup {

/// One immutable epoch: a corpus, its one index and the partition count
/// queries scatter over, the storage either owned (built by a
/// CorpusManager) or borrowed from a caller-owned static index. All
/// accessors are const and safe to call from any thread for the lifetime of
/// the handle.
class CorpusSnapshot {
 public:
  /// Wraps a caller-owned static index as a one-partition epoch-0 snapshot
  /// (a MatchingEngine over a static index). Borrowed; `index` must outlive
  /// every handle.
  static std::shared_ptr<const CorpusSnapshot> Borrow(
      const InvertedIndex& index);

  /// Same, keeping the sharded index's partition count.
  static std::shared_ptr<const CorpusSnapshot> Borrow(
      const ShardedInvertedIndex& sharded);

  CorpusSnapshot(const CorpusSnapshot&) = delete;
  CorpusSnapshot& operator=(const CorpusSnapshot&) = delete;

  /// 0 for borrowed static snapshots; >= 1 for manager-built epochs.
  uint64_t epoch() const { return epoch_; }

  /// The epoch's corpus.
  const Corpus& corpus() const { return index_->corpus(); }

  /// Number of documents in this epoch.
  size_t NumDocuments() const { return index_->NumDocuments(); }

  /// Dense local id of a document in this epoch; aborts if absent.
  uint32_t LocalOf(DocId id) const { return index_->LocalOf(id); }

  /// Universe DocId for this epoch's dense local id.
  DocId LocalToId(uint32_t local) const { return index_->LocalToId(local); }

  /// True if the document exists in this epoch.
  bool Contains(DocId id) const { return corpus().Contains(id); }

  /// The epoch's index.
  const InvertedIndex& index() const { return *index_; }

  /// Number of scatter partitions of the index, in [1, max(n, 1)].
  size_t num_shards() const { return num_shards_; }

  /// Partition `s`'s local-id range (ShardRange). Requires s < num_shards().
  DocRange Shard(size_t s) const {
    return ShardRange(NumDocuments(), num_shards_, s);
  }

  /// Order-independent content fingerprint of the corpus: hashes every
  /// (id, length, terms) in ascending-DocId order. Two snapshots with equal
  /// document sets fingerprint equally regardless of how they were reached
  /// (incrementally maintained vs. built fresh) — which is exactly what
  /// state_io snapshot headers need. Computed lazily on first use and
  /// cached (the benign double-compute race writes the same value).
  uint64_t Fingerprint() const;

 private:
  friend class CorpusManager;
  CorpusSnapshot() = default;

  uint64_t epoch_ = 0;
  /// Owned storage, populated only for manager-built snapshots. Order
  /// matters for destruction: the index borrows the corpus, so the corpus
  /// member is declared first (destroyed last).
  std::unique_ptr<const Corpus> owned_corpus_;
  std::unique_ptr<const InvertedIndex> owned_index_;
  /// View into owned storage or a borrowed static index; never null.
  const InvertedIndex* index_ = nullptr;
  size_t num_shards_ = 1;
  /// 0 = not yet computed (Fingerprint never returns 0).
  mutable std::atomic<uint64_t> fingerprint_{0};
};

/// Shared, immutable handle to one epoch. Cheap to copy; holding one pins
/// the epoch's corpus and index alive regardless of later publishes.
using SnapshotHandle = std::shared_ptr<const CorpusSnapshot>;

/// Owns the chain of corpus epochs and builds successors from deltas.
///
/// `Apply` is serialized (one builder at a time); `Current` is a brief
/// mutex-guarded pointer copy (publishes are rare and hold the lock only
/// for the final pointer store, never during the index build). A query
/// pins the epoch it starts on via `Current()` and is never invalidated —
/// old epochs die when the last handle drops.
class CorpusManager {
 public:
  struct Options {
    /// Scatter partition count of every epoch, clamped per epoch by
    /// ClampShardCount (0 and 1 both mean one partition). A MatchingEngine
    /// over the manager scatters a query over the epoch's index in this
    /// many id ranges. Partitions are ranges of the one incrementally
    /// merged index, so a publish builds nothing per partition.
    size_t num_shards = 0;
    /// Runs ApplyAsync batches; borrowed, must outlive the manager.
    ThreadPool* pool = nullptr;
  };

  /// Builds epoch 1 from `initial` (which the manager takes over).
  /// (Two overloads rather than a defaulted Options argument: a nested
  /// class with member initializers cannot appear in its own enclosing
  /// class's default arguments.)
  explicit CorpusManager(Corpus initial);
  CorpusManager(Corpus initial, Options options);

  CorpusManager(const CorpusManager&) = delete;
  CorpusManager& operator=(const CorpusManager&) = delete;

  /// The latest published epoch. Safe from any thread.
  SnapshotHandle Current() const ASUP_EXCLUDES(current_mutex_) {
    MutexLock guard(current_mutex_);
    return current_;
  }

  /// Epoch number of Current(). Wait-free: reads a mirror published with
  /// the handle, never the handle itself.
  uint64_t CurrentEpoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  /// Builds and publishes the next epoch from `delta` (validity rules in
  /// text/corpus_delta.h). Returns the published snapshot. An empty delta
  /// publishes nothing and returns the current snapshot. Serialized with
  /// other Apply calls; concurrent readers are never blocked.
  SnapshotHandle Apply(const CorpusDelta& delta)
      ASUP_EXCLUDES(apply_mutex_, current_mutex_);

  /// Queues `delta` onto the options pool (required) and invokes `done`
  /// (may be empty) with the published snapshot from the worker thread.
  void ApplyAsync(CorpusDelta delta,
                  std::function<void(SnapshotHandle)> done = {});

  size_t num_shards() const { return options_.num_shards; }

 private:
  /// Builds the successor snapshot of `base`.
  SnapshotHandle BuildNextLocked(const CorpusSnapshot& base,
                                 const CorpusDelta& delta) const
      ASUP_REQUIRES(apply_mutex_);

  /// Publishes `next` as the current snapshot. (The constructor publishes
  /// epoch 1 without apply_mutex_ — no other thread can hold a reference
  /// yet — which the analysis permits because constructors are outside its
  /// scope.)
  void Publish(SnapshotHandle next) ASUP_EXCLUDES(current_mutex_) {
    MutexLock guard(current_mutex_);
    const uint64_t epoch = next->epoch();
    current_ = std::move(next);
    current_epoch_.store(epoch, std::memory_order_release);
  }

  Options options_;
  /// Serializes epoch builds (one successor constructed at a time). Guards
  /// no fields — the build works on locals — but its declared order before
  /// current_mutex_ pins the publish protocol: a builder takes
  /// apply_mutex_, builds off to the side, then briefly takes
  /// current_mutex_ to publish.
  mutable Mutex apply_mutex_ ASUP_ACQUIRED_BEFORE(current_mutex_);
  /// Guards only the `current_` pointer itself, never the snapshot build.
  /// (A std::atomic<shared_ptr> would be wait-free, but libstdc++'s
  /// implementation synchronizes through an internal spin bit that
  /// ThreadSanitizer cannot see, producing false races on every
  /// publish/pin pair; a plain mutex is contention-free at realistic
  /// publish rates and fully TSan-visible.)
  mutable Mutex current_mutex_;
  /// Both the pointer and (conservatively) the pointee are tied to
  /// current_mutex_: readers copy the handle under the lock (Current()) and
  /// from then on use their own pin — a SnapshotHandle copy — whose
  /// pointee is immutable, so the PT annotation never constrains them.
  SnapshotHandle current_ ASUP_GUARDED_BY(current_mutex_)
      ASUP_PT_GUARDED_BY(current_mutex_);
  /// current_->epoch(), stored after every swap. A reader may see it lag a
  /// publish in flight, never lead one.
  std::atomic<uint64_t> current_epoch_{0};
};

}  // namespace asup

#endif  // ASUP_INDEX_CORPUS_MANAGER_H_
