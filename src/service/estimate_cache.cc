#include "src/service/estimate_cache.h"

namespace mudb::service {

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

}  // namespace mudb::service
