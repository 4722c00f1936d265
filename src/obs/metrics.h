// Process-wide metrics for the serving stack: named counters, gauges, and
// log-bucketed histograms behind one MetricsRegistry.
//
// Design constraints, in order:
//   * Hot paths pay one relaxed atomic add. Every metric stripes its cells
//     across kMetricStripes cache lines (threads round-robin onto stripes at
//     first touch), so concurrent writers do not bounce a shared line. No
//     locks, no allocation, no clock reads on the write path.
//   * Snapshots are deterministic functions of the observed values.
//     Histogram bucket bounds are the fixed powers of sqrt(2) — bucket h
//     holds v with 2^(h/2) <= v < 2^((h+1)/2), computed exactly from the
//     binary exponent of v*v (std::ilogb), never from a log() call whose
//     last bit could vary — so two runs that observe the same multiset of
//     values emit byte-identical bucket arrays.
//   * Snapshot() drains the stripes into per-metric totals (exchange(0)),
//     so a value observed exactly once is counted exactly once, however
//     many snapshots race with the writers. Reported values are cumulative
//     (monotonic across snapshots); Reset() starts a fresh epoch.
//
// Naming convention: stable dotted paths, subsystem first —
// "service.cache.hit", "service.request_ms", "ranking.pruned". Callers
// fetch the handle once (a function-local static is the usual idiom) and
// keep it; the registry owns the metric for the process lifetime, so
// handles never dangle.
//
// The JSON snapshot (WriteJsonFile / ToJson) follows the bench_json.h
// schema style: schema_version + flat arrays, numbers via %.17g so the
// document round-trips doubles exactly. tools/metrics_summary.py
// pretty-prints it.
//
// Like the spans (obs/trace.h), metrics never touch result bits: no RNG, no
// work-grid input, nothing an estimator reads. MUDB_OBS_DISABLED compiles
// the write paths to no-ops.

#ifndef MUDB_SRC_OBS_METRICS_H_
#define MUDB_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mudb::obs {

/// Stripes per metric. Enough that the handful of concurrent writer threads
/// (pool workers, callers) rarely share a line.
inline constexpr int kMetricStripes = 8;

/// Returns this thread's stripe slot (assigned round-robin at first use).
int ThreadStripe();

/// Histogram geometry: bucket h (h = half-exponent) spans
/// [2^(h/2), 2^((h+1)/2)), i.e. bounds grow by a factor of sqrt(2). The
/// finite range covers v from 2^-30 (~1e-9: a nanosecond in ms units) to
/// 2^40 (~1e12); bucket 0 is the underflow bucket (v below range, v <= 0,
/// NaN), and values above the range clamp into the top bucket.
inline constexpr int kHistogramMinHalfExp = -60;
inline constexpr int kHistogramMaxHalfExp = 79;
inline constexpr int kHistogramBuckets =
    kHistogramMaxHalfExp - kHistogramMinHalfExp + 2;  // + underflow

/// The bucket index for one observation — a pure function of the value's
/// binary exponent, exact on every platform.
inline int HistogramBucketIndex(double v) {
  if (!(v > 0)) return 0;  // non-positive and NaN: underflow bucket
  // v*v has binary exponent 2*log2(v) rounded down, so ilogb(v*v) IS the
  // half-exponent h with 2^(h/2) <= v < 2^((h+1)/2) — no libm rounding
  // involved. v*v overflows to +inf only beyond the clamp range anyway.
  const int h = std::ilogb(v * v);
  // Clamp on h itself: ilogb(+inf) is INT_MAX, so the index arithmetic
  // below would overflow for huge v if the range check came after it.
  if (h > kHistogramMaxHalfExp) return kHistogramBuckets - 1;
  if (h < kHistogramMinHalfExp) return 0;
  return h - kHistogramMinHalfExp + 1;
}

/// Upper bound of bucket `idx` (display only; bucketing never computes it).
double HistogramBucketUpperBound(int idx);

/// A monotonically increasing count.
class Counter {
 public:
  void Inc(int64_t delta = 1) {
#ifndef MUDB_OBS_DISABLED
    cells_[ThreadStripe()].v.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  /// Cumulative value (drained total + live stripes). Exact when writers
  /// are quiescent; a consistent monotonic read otherwise.
  int64_t Value() const;

 private:
  friend class MetricsRegistry;
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  int64_t Drain();  // moves stripes into total_; registry-serialized
  void Reset();

  std::array<Cell, kMetricStripes> cells_;
  std::atomic<int64_t> total_{0};
};

/// A last-write-wins instantaneous value (cache entry counts, queue depth).
class Gauge {
 public:
  void Set(double value) {
#ifndef MUDB_OBS_DISABLED
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

/// A log-bucketed distribution (latencies in ms, sizes, step counts).
class Histogram {
 public:
  void Observe(double v) {
#ifndef MUDB_OBS_DISABLED
    Stripe& s = stripes_[ThreadStripe()];
    s.buckets[HistogramBucketIndex(v)].fetch_add(1,
                                                 std::memory_order_relaxed);
    // Relaxed CAS add: the sum is reporting-only, and stripes keep the
    // retry rate near zero.
    double cur = s.sum.load(std::memory_order_relaxed);
    while (!s.sum.compare_exchange_weak(cur, cur + v,
                                        std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Stripe {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  void Drain();  // moves stripes into totals; registry-serialized
  void Reset();

  std::array<Stripe, kMetricStripes> stripes_;
  // Drained cumulative state. Written only under the registry mutex.
  std::array<int64_t, kHistogramBuckets> total_buckets_{};
  int64_t total_count_ = 0;
  double total_sum_ = 0.0;
};

/// One histogram's drained state, with quantile extraction.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// The upper bound of the bucket containing the p-quantile (nearest-rank
  /// over the bucket counts): an upper estimate within a factor of sqrt(2)
  /// of the true quantile, and a deterministic function of the counts.
  /// p in (0, 1]; returns 0 when the histogram is empty.
  double Quantile(double p) const;
};

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// A drained, name-sorted view of every metric in a registry.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Stable JSON document (schema in the file comment).
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem publishes into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. The pointer is
  /// stable for the registry's lifetime — fetch once, keep forever.
  /// Registering one name as two different kinds is a programming error
  /// (the first kind wins; the mismatched accessor returns nullptr).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Drains every metric's stripes and returns the cumulative state,
  /// sorted by name. Safe to call concurrently with writers: each observed
  /// value lands in exactly one snapshot's delta and every later
  /// snapshot's cumulative view.
  MetricsSnapshot Snapshot();

  /// Snapshot() serialized to JSON / written to `path` (false + stderr
  /// note on IO failure).
  std::string ToJson();
  bool WriteJsonFile(const std::string& path);

  /// Zeroes every registered metric (tests, bench leg isolation). Names
  /// stay registered; handles stay valid.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::mutex mu_;
  // std::map: snapshots come out name-sorted without a per-snapshot sort.
  std::map<std::string, Entry> entries_;  // guarded by mu_
};

}  // namespace mudb::obs

#endif  // MUDB_SRC_OBS_METRICS_H_
