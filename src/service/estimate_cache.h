// Size-bounded LRU caches for the measurement serving layer.
//
// Two cache families share the mechanics:
//   * EstimateCache — per-body volume estimates, keyed by canonical body
//     key × ε tier (convex::CombineKeyWithParams). Plugged into the FPRAS
//     pipeline as volume::BodyEstimateCache, it lets overlapping Karp–Luby
//     unions and repeated candidates skip a body's sampling entirely.
//   * LruCache<Value> — the generic engine, reused by the service's
//     request-level result memo (service/measure_service.h).
//
// Why a cache hit cannot change a result: every cached value is a pure
// function of its key (body estimates draw from convex::RngForKey streams;
// request results are pure functions of the request signature), so a hit
// returns bit-exactly what recomputation would produce. The cache is a work
// saver, never a source of nondeterminism — evicting everything mid-stream
// only costs resampling.
//
// Concurrency: one mutex guards the entries and the counters. The service
// already serializes its batches (MeasureService::RunBatch holds one lock
// across a batch) and looks bodies up in a sequential loop, so the lock is
// uncontended there; it keeps direct callers that share one cache across
// threads safe.

#ifndef MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
#define MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/convex/canonical.h"
#include "src/volume/union_volume.h"

namespace mudb::service {

/// Operation counters of one cache, monotonic over its lifetime.
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

/// Generic LRU map from canonical keys to small values, holding at most
/// `capacity` entries (at least one); the least-recently-used entry is
/// evicted on insert into a full cache.
template <typename Value>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

  std::optional<Value> Lookup(const convex::CanonicalBodyKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    // Move to the front of the recency list.
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->second;
  }

  void Insert(const convex::CanonicalBodyKey& key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      --stats_.entries;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    ++stats_.insertions;
    ++stats_.entries;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  using Entry = std::pair<convex::CanonicalBodyKey, Value>;

  const size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  // Front = most recently used. The map points into the list.
  std::list<Entry> lru_;
  std::unordered_map<convex::CanonicalBodyKey,
                     typename std::list<Entry>::iterator,
                     convex::CanonicalBodyKey::Hash>
      index_;
  CacheStats stats_;
};

/// The per-body estimate cache the FPRAS pipeline plugs into
/// (MeasureOptions::body_cache / FprasOptions::body_cache). Tracks the
/// hit-and-run steps that cache hits saved, on top of the LRU counters.
class EstimateCache : public volume::BodyEstimateCache {
 public:
  /// `capacity` = max entries. An entry is ~100 bytes, so 4096 entries
  /// bound the cache around half a megabyte.
  explicit EstimateCache(size_t capacity) : cache_(capacity) {}

  std::optional<volume::CachedBodyEstimate> Lookup(
      const convex::CanonicalBodyKey& key) override;
  void Insert(const convex::CanonicalBodyKey& key,
              const volume::CachedBodyEstimate& estimate) override;

  CacheStats stats() const { return cache_.stats(); }
  /// Total hit-and-run steps that Lookup hits avoided recomputing.
  int64_t steps_saved() const {
    return steps_saved_.load(std::memory_order_relaxed);
  }

 private:
  LruCache<volume::CachedBodyEstimate> cache_;
  std::atomic<int64_t> steps_saved_{0};
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
