// Tests for src/obs: histogram bucket determinism, quantiles against exact
// references, snapshot-vs-concurrent-writers exactness (this suite runs
// under TSan in CI), span parentage within a thread, across the ThreadPool
// seam and from a service batch to its requests, the observability
// determinism contract (tracing on/off leaves every result bit-identical),
// and fake-clock-driven durations.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/constraints/real_formula.h"
#include "src/measure/measure.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/poly/polynomial.h"
#include "src/service/measure_service.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace mudb::obs {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }

// 3-D positive orthant: a cheap single-body FPRAS workload.
RealFormula Orthant3D() {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  return RealFormula::And(std::move(parts));
}

measure::MeasureOptions FprasOpts(uint64_t seed) {
  measure::MeasureOptions opts;
  opts.method = measure::Method::kFpras;
  opts.epsilon = 0.5;
  opts.seed = seed;
  return opts;
}

// Restores the tracing default (off, no recorded spans) around each test
// that toggles it, so suites do not observe each other's spans.
struct ScopedTracing {
  ScopedTracing() {
    ClearTraces();
    EnableTracing();
  }
  ~ScopedTracing() {
    DisableTracing();
    ClearTraces();
  }
};

// ---- Histogram bucketing ----------------------------------------------------

TEST(HistogramBucketTest, IndexIsExactHalfExponent) {
  // v = 1: v^2 = 1, ilogb = 0 -> half-exponent 0.
  EXPECT_EQ(HistogramBucketIndex(1.0), -kHistogramMinHalfExp + 1);
  // v = 2: v^2 = 4, ilogb = 2 -> half-exponent 2.
  EXPECT_EQ(HistogramBucketIndex(2.0), 2 - kHistogramMinHalfExp + 1);
  // Just below sqrt(2): still half-exponent 0.
  EXPECT_EQ(HistogramBucketIndex(1.414), -kHistogramMinHalfExp + 1);
  // Just above sqrt(2): half-exponent 1.
  EXPECT_EQ(HistogramBucketIndex(1.415), 1 - kHistogramMinHalfExp + 1);
}

TEST(HistogramBucketTest, DegenerateValuesLandInUnderflowBucket) {
  EXPECT_EQ(HistogramBucketIndex(0.0), 0);
  EXPECT_EQ(HistogramBucketIndex(-3.5), 0);
  EXPECT_EQ(HistogramBucketIndex(std::nan("")), 0);
  // Below the finite range.
  EXPECT_EQ(HistogramBucketIndex(1e-12), 0);
}

TEST(HistogramBucketTest, HugeValuesClampIntoTopBucket) {
  EXPECT_EQ(HistogramBucketIndex(1e30), kHistogramBuckets - 1);
  // v*v overflows to +inf; still the top bucket, no UB.
  EXPECT_EQ(HistogramBucketIndex(1e300), kHistogramBuckets - 1);
}

TEST(HistogramBucketTest, BucketBoundsBracketTheirValues) {
  for (double v : {1e-8, 0.003, 0.5, 1.0, 7.3, 1000.0, 3.7e9}) {
    int idx = HistogramBucketIndex(v);
    ASSERT_GT(idx, 0) << v;
    EXPECT_LT(v, HistogramBucketUpperBound(idx)) << v;
    // The bound below grows by sqrt(2) per bucket, so the lower edge is the
    // previous bucket's upper bound.
    EXPECT_GE(v, HistogramBucketUpperBound(idx - 1) * (1.0 - 1e-12)) << v;
  }
}

TEST(HistogramBucketTest, BucketingIsDeterministicAcrossRuns) {
  // The multiset of observations decides the bucket array, byte for byte.
  MetricsRegistry reg_a, reg_b;
  Histogram* a = reg_a.histogram("h");
  Histogram* b = reg_b.histogram("h");
  for (int i = 1; i <= 5000; ++i) {
    double v = 0.001 * i * i;
    a->Observe(v);
    b->Observe(v);
  }
  MetricsSnapshot sa = reg_a.Snapshot();
  MetricsSnapshot sb = reg_b.Snapshot();
  ASSERT_EQ(sa.histograms.size(), 1u);
  EXPECT_EQ(sa.histograms[0].buckets, sb.histograms[0].buckets);
  EXPECT_EQ(sa.ToJson(), sb.ToJson());
}

// ---- Quantiles --------------------------------------------------------------

TEST(HistogramQuantileTest, QuantileIsWithinSqrt2OfExact) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("latency");
  // 1..10000: exact p-quantile (nearest-rank) is ceil(p * 10000).
  for (int i = 1; i <= 10000; ++i) h->Observe(static_cast<double>(i));
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, 10000);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    double exact = std::ceil(p * 10000);
    double q = hs.Quantile(p);
    // The reported quantile is the upper bound of the bucket holding the
    // rank value: an over-estimate by at most the bucket ratio sqrt(2).
    EXPECT_GE(q, exact) << p;
    EXPECT_LE(q, exact * std::sqrt(2.0) * (1.0 + 1e-12)) << p;
  }
}

TEST(HistogramQuantileTest, EmptyHistogramQuantileIsZero) {
  HistogramSnapshot hs;
  EXPECT_EQ(hs.Quantile(0.5), 0.0);
}

// ---- Registry semantics -----------------------------------------------------

TEST(MetricsRegistryTest, SnapshotsAreCumulativeAndDrainExactlyOnce) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  c->Inc(5);
  EXPECT_EQ(registry.Snapshot().counters[0].value, 5);
  c->Inc(3);
  EXPECT_EQ(registry.Snapshot().counters[0].value, 8);
  // No writes since: cumulative view unchanged.
  EXPECT_EQ(registry.Snapshot().counters[0].value, 8);
  EXPECT_EQ(c->Value(), 8);
}

TEST(MetricsRegistryTest, HandlesAreStableAndKindChecked) {
  MetricsRegistry registry;
  Counter* c = registry.counter("x");
  EXPECT_EQ(registry.counter("x"), c);
  // One name, two kinds: the first kind wins, the mismatch is null.
  EXPECT_EQ(registry.gauge("x"), nullptr);
  EXPECT_EQ(registry.histogram("x"), nullptr);
  EXPECT_NE(registry.gauge("y"), nullptr);
}

TEST(MetricsRegistryTest, JsonSnapshotIsStableAndSorted) {
  MetricsRegistry registry;
  registry.counter("z.last")->Inc(2);
  registry.counter("a.first")->Inc(1);
  registry.gauge("m.gauge")->Set(0.5);
  registry.histogram("m.hist")->Observe(3.0);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  // Name-sorted: a.first precedes z.last.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  // Quiescent: a second snapshot emits the identical document.
  EXPECT_EQ(registry.ToJson(), json);
}

TEST(MetricsRegistryTest, ConcurrentWritersLoseNothing) {
  MetricsRegistry registry;
  Counter* c = registry.counter("hits");
  Histogram* h = registry.histogram("obs");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  // A snapshot thread races the writers: draining must never double-count
  // or drop an increment.
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.Snapshot();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters[0].value, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.histograms[0].count, int64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, ResetStartsAFreshEpochKeepingHandles) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  c->Inc(7);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0);
  c->Inc(2);  // the old handle still works
  EXPECT_EQ(registry.Snapshot().counters[0].value, 2);
}

// ---- Span parentage ---------------------------------------------------------

TEST(SpanTest, NestedSpansFormATreeOnOneThread) {
  ScopedTracing tracing;
  uint64_t outer_id = 0, trace_id = 0;
  {
    Span outer("outer");
    outer_id = outer.context().span_id;
    trace_id = outer.context().trace_id;
    Span inner("inner");
    EXPECT_EQ(inner.context().trace_id, trace_id);
  }
  std::vector<SpanRecord> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, SpanRecord> by_name;
  for (SpanRecord& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["outer"].parent_id, 0u);
  EXPECT_EQ(by_name["outer"].span_id, outer_id);
  EXPECT_EQ(by_name["inner"].parent_id, outer_id);
  EXPECT_EQ(by_name["inner"].trace_id, trace_id);
  // Off again: new spans do not record.
  DisableTracing();
  { Span after("after"); }
  EXPECT_EQ(CollectSpans().size(), 2u);
}

TEST(SpanTest, ParentCrossesTheThreadPoolSeam) {
  ScopedTracing tracing;
  util::ThreadPool pool(4);
  uint64_t outer_id = 0, trace_id = 0;
  {
    Span outer("batch");
    outer_id = outer.context().span_id;
    trace_id = outer.context().trace_id;
    pool.ParallelFor(16, [](int64_t) { Span task("task"); });
  }
  std::vector<SpanRecord> spans = CollectSpans();
  int tasks = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "task") continue;
    ++tasks;
    // Every task span, whichever worker ran it, parents under the
    // submitting span and shares its trace.
    EXPECT_EQ(s.parent_id, outer_id);
    EXPECT_EQ(s.trace_id, trace_id);
  }
  EXPECT_EQ(tasks, 16);
}

TEST(SpanTest, ServiceProcessSpansParentUnderTheirBatch) {
  ScopedTracing tracing;
  service::MeasureService svc;
  std::vector<service::MeasureRequest> reqs;
  for (uint64_t s = 0; s < 4; ++s) {
    reqs.push_back(service::MeasureRequest::Nu(Orthant3D(), FprasOpts(61 + s)));
  }
  auto outcome = svc.RunBatch(std::move(reqs));
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok()) << r.status();

  std::vector<SpanRecord> spans = CollectSpans();
  const SpanRecord* batch = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "service.batch") batch = &s;
  }
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->trace_id, outcome.trace_id);
  int processed = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "service.process") continue;
    ++processed;
    // Requests run inside the batch on the caller's thread, so every
    // request span parents under the batch span and shares its trace.
    EXPECT_EQ(s.parent_id, batch->span_id);
    EXPECT_EQ(s.trace_id, batch->trace_id);
  }
  EXPECT_EQ(processed, 4);
}

// ---- The determinism contract -----------------------------------------------

TEST(ObsDeterminismTest, TracingOnOffLeavesResultsBitIdentical) {
  auto run = [] {
    service::MeasureService svc;
    std::vector<service::MeasureRequest> reqs;
    for (uint64_t s = 0; s < 4; ++s) {
      reqs.push_back(
          service::MeasureRequest::Nu(Orthant3D(), FprasOpts(41 + s)));
    }
    auto outcome = svc.RunBatch(std::move(reqs));
    std::vector<double> values;
    for (const auto& r : outcome.results) {
      EXPECT_TRUE(r.ok()) << r.status();
      values.push_back(r->value);
      values.push_back(r->ci_lo);
      values.push_back(r->ci_hi);
    }
    return values;
  };

  DisableTracing();
  std::vector<double> untraced = run();
  std::vector<double> traced;
  {
    ScopedTracing tracing;
    traced = run();
    EXPECT_FALSE(CollectSpans().empty());
  }
  // memcmp-strength equality: the doubles must match bit for bit.
  ASSERT_EQ(traced.size(), untraced.size());
  for (size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i], untraced[i]) << i;
  }

  // Direct engine path too, and the flight-recorder handle behaves: 0 when
  // off, a collectible tree when on.
  auto direct = measure::ComputeNu(Orthant3D(), FprasOpts(99));
  ASSERT_TRUE(direct.ok());
  {
    ScopedTracing tracing;
    auto traced_direct = measure::ComputeNu(Orthant3D(), FprasOpts(99));
    ASSERT_TRUE(traced_direct.ok());
    EXPECT_EQ(traced_direct->value, direct->value);
    EXPECT_EQ(traced_direct->ci_lo, direct->ci_lo);
    EXPECT_EQ(traced_direct->ci_hi, direct->ci_hi);
  }
}

TEST(ObsDeterminismTest, BatchOutcomeCarriesTraceIdOnlyWhenTracing) {
  service::MeasureService svc;
  std::vector<service::MeasureRequest> reqs;
  reqs.push_back(service::MeasureRequest::Nu(Orthant3D(), FprasOpts(51)));
  auto untraced = svc.RunBatch(std::move(reqs));
  EXPECT_EQ(untraced.trace_id, 0u);

  ScopedTracing tracing;
  std::vector<service::MeasureRequest> reqs2;
  reqs2.push_back(service::MeasureRequest::Nu(Orthant3D(), FprasOpts(51)));
  auto traced = svc.RunBatch(std::move(reqs2));
  ASSERT_NE(traced.trace_id, 0u);
  std::vector<SpanRecord> tree = CollectTrace(traced.trace_id);
  ASSERT_FALSE(tree.empty());
  bool has_batch = false;
  for (const SpanRecord& s : tree) has_batch |= s.name == "service.batch";
  EXPECT_TRUE(has_batch);
}

// ---- Fake clock -------------------------------------------------------------

TEST(FakeClockTest, SpanDurationsAreExactUnderTheFakeClock) {
  ScopedFakeClock clock(int64_t{1000});
  ScopedTracing tracing;
  {
    Span span("timed");
    clock.AdvanceMillis(2.0);
  }
  std::vector<SpanRecord> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_nanos, 1000);
  EXPECT_EQ(spans[0].end_nanos, 1000 + 2000000);
  EXPECT_EQ(spans[0].DurationMillis(), 2.0);
}

TEST(FakeClockTest, WallTimerFollowsTheFakeClock) {
  ScopedFakeClock clock(int64_t{0});
  util::WallTimer timer;
  clock.AdvanceMillis(5.0);
  EXPECT_EQ(timer.ElapsedMillis(), 5.0);
}

}  // namespace
}  // namespace mudb::obs
