#ifndef ASUP_ENGINE_ANSWER_CACHE_H_
#define ASUP_ENGINE_ANSWER_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asup/engine/search_service.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/hash.h"

namespace asup {

/// A sharded, thread-safe memo table from canonical query strings to final
/// answers, each tagged with the corpus epoch it was computed in.
///
/// This cache *is* the determinism guarantee of Section 2.1 under
/// concurrency: the first caller to claim a key computes the answer while
/// every concurrent caller of the same query blocks until the answer is
/// published — so a query observably has exactly one answer, regardless of
/// how racing threads interleave. Keys are hash-partitioned across a
/// power-of-two shard array, so distinct queries rarely contend. A key's
/// shard comes from HashString(key), which is the KeywordQuery::hash() a
/// caller already holds — the lookup-only entry points take it
/// precomputed.
///
/// The epoch tag lets a caller answer a repeat without any lock of its
/// own: Lookup hits only when the entry was computed in the epoch the
/// caller names, so an answer cached before a publish can never replay
/// after it, even before the owner gets to Clear().
///
/// Lock discipline (compiler-checked, DESIGN.md §14): each shard embeds its
/// own `Mutex` and its map is `ASUP_GUARDED_BY` it — the annotation needs a
/// statically nameable capability, which is why the mutex lives inside the
/// shard struct rather than in a parallel table of mutexes.
class AnswerCache {
 public:
  explicit AnswerCache(size_t min_shards = 16);

  enum class Claim {
    /// The answer was already computed (or became ready while waiting);
    /// it has been copied to the out parameter.
    kHit,
    /// The caller owns the key and must call Publish (or Abandon).
    kOwned,
  };

  /// Looks the key up; claims it if absent. Blocks while another thread
  /// holds the claim. Ignores epoch tags: the caller guarantees every
  /// entry belongs to its current epoch.
  Claim LookupOrClaim(const std::string& key, SearchResult* out);

  /// Completes a claim: stores the answer, computed in `epoch`, and wakes
  /// waiters.
  void Publish(const std::string& key, uint64_t epoch,
               const SearchResult& result);

  /// Releases a claim without an answer (compute failed); wakes waiters,
  /// which then race to re-claim.
  void Abandon(const std::string& key);

  /// Copies a *ready* answer computed in `epoch` to `out`. Never blocks on
  /// a claim, never claims. `hash` must be HashString(key). Unlike
  /// LookupOrClaim it opens no span: it is the repeat path a defended
  /// engine takes before any lock, where each extra cache line touched
  /// shows in the benchmark's hit latency. Neither entry point counts a
  /// hit; the defended engine's recorder does, in its stats and kCacheHit
  /// event.
  bool Lookup(uint64_t hash, const std::string& key, uint64_t epoch,
              SearchResult* out) const;

  /// True if Lookup would hit. `hash` must be HashString(key).
  bool Contains(uint64_t hash, const std::string& key, uint64_t epoch) const;

  /// Number of ready answers.
  size_t size() const;

  /// Drops everything, including in-flight claims. Callers must be
  /// quiesced (used by state persistence).
  void Clear();

  /// Inserts a ready answer directly (state restore; callers quiesced).
  void Insert(const std::string& key, uint64_t epoch, SearchResult result);

  /// Copies all ready entries (state save; callers quiesced).
  std::vector<std::pair<std::string, SearchResult>> Snapshot() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  /// A claimed slot whose answer is still being computed.
  static constexpr uint64_t kPending = std::numeric_limits<uint64_t>::max();

  // The epoch doubles as the ready flag so an entry stays 40 bytes: on
  // streams of fresh, match-heavy queries the node's malloc size class
  // interleaves with the match phase's allocations. One 16-byte class up
  // cost AS-SIMPLE 30-60% at the p99 of perfbench probe_scan (4-core Xeon).
  struct Entry {
    SearchResult result;
    /// The epoch the answer was computed in, or kPending.
    uint64_t epoch = kPending;
    bool ready() const { return epoch != kPending; }
  };

  // The maps hash keys with HashString, so a probe that carries the
  // caller's precomputed hash never rehashes the key.
  struct PrehashedKey {
    std::string_view key;
    uint64_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const { return HashString(key); }
    size_t operator()(const PrehashedKey& probe) const { return probe.hash; }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
    bool operator()(const PrehashedKey& a, std::string_view b) const {
      return a.key == b;
    }
    bool operator()(std::string_view a, const PrehashedKey& b) const {
      return a == b.key;
    }
  };

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::string, Entry, KeyHash, KeyEqual> map
        ASUP_GUARDED_BY(mutex);
    std::condition_variable ready_cv;
  };

  Shard& ShardFor(uint64_t hash) const {
    return shards_[Mix64(hash) & shard_mask_];
  }
  Shard& ShardFor(const std::string& key) const {
    return ShardFor(HashString(key));
  }

  uint64_t shard_mask_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_ANSWER_CACHE_H_
