#include "asup/engine/answer_cache.h"

#include <algorithm>
#include <optional>

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

AnswerCache::AnswerCache(size_t min_shards) {
  size_t shards = 1;
  while (shards < std::max<size_t>(min_shards, 1)) shards <<= 1;
  shard_mask_ = shards - 1;
  // Shards are constructed in place and never moved: Mutex and
  // condition_variable are address-stable for the cache's lifetime.
  shards_ = std::vector<Shard>(shards);
}

AnswerCache::Claim AnswerCache::LookupOrClaim(const std::string& key,
                                              SearchResult* out) {
#if ASUP_METRICS_ENABLED
  // A cache hit is the sub-µs fast path; the stage span's two clock reads
  // would be its dominant cost, so span it only for actively traced
  // queries. The counters below stay on (one relaxed add each).
  std::optional<obs::ScopedStageTimer> span;
  if (obs::ActiveTrace() != nullptr) {
    span.emplace(obs::Stage::kCacheLookup);
  }
#endif
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  for (;;) {
    auto [it, inserted] = shard.map.try_emplace(key);
    if (inserted) {
      ASUP_METRIC_COUNT("asup_engine_cache_claims_total", 1,
                        "Answer-cache slots claimed for computation");
      return Claim::kOwned;
    }
    if (it->second.ready()) {
      ASUP_METRIC_COUNT("asup_engine_cache_hits_total", 1,
                        "Answer-cache hits on the locked claim path only; "
                        "lock-free repeat hits count in engine stats");
      ASUP_METRICS_ONLY(if (span) { ASUP_TRACE_NOTE("cache_hit", 1); })
      *out = it->second.result;
      return Claim::kHit;
    }
    // Another thread is computing this key. Iterators may be invalidated by
    // concurrent insertions while we wait, so re-probe from scratch.
    lock.Wait(shard.ready_cv);
  }
}

void AnswerCache::Publish(const std::string& key, uint64_t epoch,
                          const SearchResult& result) {
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    // Claim protocol: only the thread that claimed the key may publish,
    // exactly once. Re-publishing a ready entry could swap an answer a
    // client already saw — the nondeterministic-re-issue side channel the
    // cache exists to close.
    ASUP_CONTRACTS_ONLY(const auto claimed = shard.map.find(key);
                        ASUP_CHECK(claimed != shard.map.end());
                        ASUP_CHECK(!claimed->second.ready());
                        ASUP_CHECK(epoch != kPending);)
    Entry& entry = shard.map[key];
    entry.result = result;
    entry.epoch = epoch;
  }
  ASUP_METRIC_COUNT("asup_engine_cache_publishes_total", 1,
                    "Computed answers published to the cache");
  shard.ready_cv.notify_all();
}

void AnswerCache::Abandon(const std::string& key) {
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    auto it = shard.map.find(key);
    // Abandoning a published answer would let a later compute replace it;
    // only unclaimed or in-flight keys may be abandoned.
    ASUP_CHECK(it == shard.map.end() || !it->second.ready());
    if (it != shard.map.end() && !it->second.ready()) shard.map.erase(it);
  }
  ASUP_METRIC_COUNT("asup_engine_cache_abandons_total", 1,
                    "Claimed cache slots abandoned after a failure");
  shard.ready_cv.notify_all();
}

bool AnswerCache::Lookup(uint64_t hash, const std::string& key,
                         uint64_t epoch, SearchResult* out) const {
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  auto it = shard.map.find(PrehashedKey{key, hash});
  if (it == shard.map.end() || it->second.epoch != epoch) return false;
  *out = it->second.result;
  return true;
}

bool AnswerCache::Contains(uint64_t hash, const std::string& key,
                           uint64_t epoch) const {
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  auto it = shard.map.find(PrehashedKey{key, hash});
  return it != shard.map.end() && it->second.epoch == epoch;
}

size_t AnswerCache::size() const {
  size_t count = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    // NOLINTNEXTLINE(asup-unordered-iteration): counting is order-invariant
    for (const auto& [key, entry] : shard.map) {
      if (entry.ready()) ++count;
    }
  }
  return count;
}

void AnswerCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.map.clear();
  }
}

void AnswerCache::Insert(const std::string& key, uint64_t epoch,
                         SearchResult result) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  Entry& entry = shard.map[key];
  entry.result = std::move(result);
  entry.epoch = epoch;
}

std::vector<std::pair<std::string, SearchResult>> AnswerCache::Snapshot()
    const {
  std::vector<std::pair<std::string, SearchResult>> entries;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    // NOLINTNEXTLINE(asup-unordered-iteration): order canonicalized below
    for (const auto& [key, entry] : shard.map) {
      if (entry.ready()) entries.emplace_back(key, entry.result);
    }
  }
  // Canonical order: hash-map iteration order must not leak into snapshot
  // bytes, or two saves of identical state would differ.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace asup
