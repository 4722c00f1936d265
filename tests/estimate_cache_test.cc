// Tests for service/estimate_cache.h: LRU semantics, size bounds, counters,
// and concurrent access of the cache the serving layer shares across
// requests.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/estimate_cache.h"

namespace mudb::service {
namespace {

convex::CanonicalBodyKey Key(uint64_t hi, uint64_t lo) {
  return convex::CanonicalBodyKey{util::Fingerprint128{hi, lo}};
}

volume::CachedBodyEstimate Estimate(double volume, int64_t steps) {
  return volume::CachedBodyEstimate{volume, steps, /*phases=*/3};
}

TEST(EstimateCacheTest, LookupAfterInsertRoundTrips) {
  EstimateCache cache(4096);
  EXPECT_FALSE(cache.Lookup(Key(1, 2)).has_value());
  cache.Insert(Key(1, 2), Estimate(0.5, 1000));
  auto hit = cache.Lookup(Key(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->volume, 0.5);
  EXPECT_EQ(hit->steps, 1000);
  EXPECT_EQ(hit->phases, 3);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_EQ(cache.steps_saved(), 1000);
}

TEST(EstimateCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  EstimateCache cache(4);
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(Key(10, i), Estimate(static_cast<double>(i), 1));
  }
  // Touch key 0 so key 1 becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(Key(10, 0)).has_value());
  cache.Insert(Key(10, 99), Estimate(99.0, 1));

  EXPECT_TRUE(cache.Lookup(Key(10, 0)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(10, 1)).has_value());  // evicted
  EXPECT_TRUE(cache.Lookup(Key(10, 2)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(10, 3)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(10, 99)).has_value());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 4);
}

TEST(EstimateCacheTest, ReinsertUpdatesInPlace) {
  EstimateCache cache(4);
  cache.Insert(Key(1, 1), Estimate(1.0, 10));
  cache.Insert(Key(1, 1), Estimate(2.0, 20));
  auto hit = cache.Lookup(Key(1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->volume, 2.0);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(EstimateCacheTest, GenericCacheStoresArbitraryValues) {
  LruCache<std::vector<int>> cache(8);
  cache.Insert(Key(5, 5), {1, 2, 3});
  auto hit = cache.Lookup(Key(5, 5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<int>{1, 2, 3}));
}

TEST(EstimateCacheTest, ConcurrentLookupInsertIsSafe) {
  // Hammer one cache from several threads; TSan (CI) checks the locking,
  // this test checks nothing is lost or double-counted in the totals.
  EstimateCache cache(256);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Working set smaller than the capacity: revisits must hit.
        uint64_t id = static_cast<uint64_t>((t * kOpsPerThread + i) % 128);
        convex::CanonicalBodyKey key = Key(id << 32, id);
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, Estimate(static_cast<double>(id), 1));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.entries, 256);
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace mudb::service
