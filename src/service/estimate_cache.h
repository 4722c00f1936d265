// Sharded, size-bounded LRU caches for the measurement serving layer.
//
// Two cache families share the mechanics:
//   * EstimateCache — per-body volume estimates, keyed by canonical body
//     key × ε tier (convex::CombineKeyWithParams). Plugged into the FPRAS
//     pipeline as volume::BodyEstimateCache, it lets overlapping Karp–Luby
//     unions and repeated candidates skip a body's sampling entirely.
//   * ShardedLruCache<Value> — the generic engine, reused by the service's
//     request-level result memo (service/measure_service.h).
//
// Why a cache hit cannot change a result: every cached value is a pure
// function of its key (body estimates draw from convex::RngForKey streams;
// request results are pure functions of the request signature), so a hit
// returns bit-exactly what recomputation would produce. The cache is a work
// saver, never a source of nondeterminism — evicting everything mid-stream
// only costs resampling.
//
// Concurrency: shard-per-mutex with keys routed by their high fingerprint
// bits; counters are atomics, so stats() is cheap and wait-free. Safe for
// concurrent Lookup/Insert from any number of threads.

#ifndef MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
#define MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/convex/canonical.h"
#include "src/util/status.h"
#include "src/volume/union_volume.h"

namespace mudb::service {

/// Operation counters of one cache. Monotonic between Clear() calls —
/// Clear() resets every counter together with the entries, so post-clear
/// hit-rate reporting starts from zero instead of mixing epochs (a mixed
/// snapshot could claim a hit rate no post-clear workload produced).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Current entry count (not monotonic).
  int64_t entries = 0;
  /// Hit ratio in [0, 1]; 0 when no lookups happened yet.
  double HitRate() const {
    int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

/// Generic sharded LRU map from canonical keys to small values. Capacity is
/// global (split evenly across shards, at least one entry each); the
/// least-recently-used entry of a full shard is evicted on insert.
template <typename Value>
class ShardedLruCache {
 public:
  /// `capacity` = max entries across all shards; `shards` is rounded up to
  /// a power of two so key bits route without division. Shards hold a
  /// mutex, so the vector is built at full size once and never reallocated.
  explicit ShardedLruCache(size_t capacity, int shards = 8)
      : shards_(RoundUpPow2(shards)) {
    size_t per_shard = capacity / shards_.size();
    per_shard_capacity_ = per_shard > 0 ? per_shard : 1;
  }

  std::optional<Value> Lookup(const convex::CanonicalBodyKey& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    // Move to the front of the recency list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  void Insert(const convex::CanonicalBodyKey& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Empties every shard and resets all counters as one event. Every shard
  /// lock is held across both, so concurrent Lookup/Insert traffic lands
  /// entirely before or entirely after the reset — the previous per-shard
  /// sweep let a racing epoch mix stale hit/miss totals with a zeroed entry
  /// count, which made derived post-clear rates incoherent (negative deltas,
  /// ratios above 1). Only Clear takes more than one shard lock, so the
  /// ascending acquisition order cannot deadlock.
  void Clear() {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (Shard& shard : shards_) locks.emplace_back(shard.mu);
    for (Shard& shard : shards_) {
      shard.index.clear();
      shard.lru.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    insertions_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    entries_.store(0, std::memory_order_relaxed);
  }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    return s;
  }

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used. The map points into the list.
    std::list<std::pair<convex::CanonicalBodyKey, Value>> lru;
    std::unordered_map<
        convex::CanonicalBodyKey,
        typename std::list<std::pair<convex::CanonicalBodyKey, Value>>::
            iterator,
        convex::CanonicalBodyKey::Hash>
        index;
  };

  static size_t RoundUpPow2(int shards) {
    size_t rounded = 1;
    while (rounded < static_cast<size_t>(shards > 1 ? shards : 1)) {
      rounded *= 2;
    }
    return rounded;
  }

  Shard& ShardFor(const convex::CanonicalBodyKey& key) {
    // High bits: the low bits already feed the in-shard hash map.
    return shards_[(key.fp.hi >> 32) & (shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
  size_t per_shard_capacity_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> entries_{0};
};

/// The per-body estimate cache the FPRAS pipeline plugs into
/// (MeasureOptions::body_cache / FprasOptions::body_cache). Tracks the
/// hit-and-run steps that cache hits saved, on top of the LRU counters.
class EstimateCache : public volume::BodyEstimateCache {
 public:
  struct Options {
    /// Max entries across all shards. An entry is ~100 bytes, so the
    /// default bounds the cache around half a megabyte.
    size_t capacity = 4096;
    /// Rounded up to a power of two.
    int shards = 8;
  };

  EstimateCache();  // default Options
  explicit EstimateCache(const Options& options);

  std::optional<volume::CachedBodyEstimate> Lookup(
      const convex::CanonicalBodyKey& key) override;
  void Insert(const convex::CanonicalBodyKey& key,
              const volume::CachedBodyEstimate& estimate) override;

  /// Empties the cache and resets stats() AND steps_saved() to zero (the
  /// counters describe one epoch; see ShardedLruCache::Clear).
  void Clear();
  CacheStats stats() const { return cache_.stats(); }
  /// Total hit-and-run steps that Lookup hits avoided recomputing.
  int64_t steps_saved() const {
    return steps_saved_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return cache_.capacity(); }

 private:
  ShardedLruCache<volume::CachedBodyEstimate> cache_;
  std::atomic<int64_t> steps_saved_{0};
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
