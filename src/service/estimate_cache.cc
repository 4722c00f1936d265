#include "src/service/estimate_cache.h"

namespace mudb::service {

EstimateCache::EstimateCache() : EstimateCache(Options()) {}

EstimateCache::EstimateCache(const Options& options)
    : cache_(options.capacity, options.shards) {}

std::optional<volume::CachedBodyEstimate> EstimateCache::Lookup(
    const convex::CanonicalBodyKey& key) {
  std::optional<volume::CachedBodyEstimate> hit = cache_.Lookup(key);
  if (hit.has_value()) {
    steps_saved_.fetch_add(hit->steps, std::memory_order_relaxed);
  }
  return hit;
}

void EstimateCache::Insert(const convex::CanonicalBodyKey& key,
                           const volume::CachedBodyEstimate& estimate) {
  cache_.Insert(key, estimate);
}

void EstimateCache::Clear() {
  // Reset the derived counter with the underlying cache: after a Clear,
  // steps_saved() must not report savings from an epoch whose hit/miss
  // counters are gone (hit-rate and steps-saved reporting would disagree).
  cache_.Clear();
  steps_saved_.store(0, std::memory_order_relaxed);
}

}  // namespace mudb::service
