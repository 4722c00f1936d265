// Tests for src/obs: span parentage within a thread, across the ThreadPool
// seam (this suite runs under TSan in CI) and from a service batch to its
// requests, the observability determinism contract (tracing on/off leaves
// every result bit-identical), the span-overhead budget (2% of an untraced
// batch), and fake-clock-driven durations.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/constraints/real_formula.h"
#include "src/measure/measure.h"
#include "src/obs/clock.h"
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

// ---- Overhead budget --------------------------------------------------------

// A 64-request FPRAS batch over 16 distinct formulas, each repeated 4×.
// Request d is (shared positive orthant) ∨ (private cone d), so every
// request shares one canonical body with the whole batch.
std::vector<service::MeasureRequest> SharedConeBatch() {
  auto C = [](double c) { return Polynomial::Constant(c); };
  measure::MeasureOptions opts;
  opts.method = measure::Method::kFpras;
  opts.epsilon = 0.35;
  std::vector<service::MeasureRequest> reqs;
  for (int r = 0; r < 64; ++r) {
    const int d = r % 16;
    std::vector<RealFormula> priv;
    priv.push_back(RealFormula::Cmp(Z(0) + C(1.0 + d) * Z(1), CmpOp::kLt));
    priv.push_back(RealFormula::Cmp(Z(1) + C(0.5 + d) * Z(2), CmpOp::kLt));
    priv.push_back(RealFormula::Cmp(Z(2), CmpOp::kLt));
    std::vector<RealFormula> ors;
    ors.push_back(Orthant3D());
    ors.push_back(RealFormula::And(std::move(priv)));
    RealFormula f = RealFormula::Or(std::move(ors));
    reqs.push_back(service::MeasureRequest::Nu(std::move(f), opts));
  }
  return reqs;
}

TEST(ObsOverheadTest, SpansCostUnderTwoPercentOfAnUntracedBatch) {
  // Per-span cost with recording on, probed directly: construct, destroy
  // and two annotations, the instrumentation's worst case. The bound is
  // derived (per-span cost × spans a traced batch records), not a wall
  // A/B of two batches, so host timing noise cannot flake it.
  double per_span_ms = 0.0;
  {
    ScopedTracing tracing;
    constexpr int kProbe = 50000;
    util::WallTimer timer;
    for (int i = 0; i < kProbe; ++i) {
      Span span("obs_test.overhead_probe");
      span.Annotate("a", 1.0);
      span.Annotate("b", "x");
    }
    per_span_ms = timer.ElapsedMillis() / kProbe;
  }

  service::MeasureService untraced_svc;
  auto untraced = untraced_svc.RunBatch(SharedConeBatch());
  for (const auto& r : untraced.results) ASSERT_TRUE(r.ok()) << r.status();

  size_t spans = 0;
  {
    ScopedTracing tracing;
    service::MeasureService traced_svc;
    auto traced = traced_svc.RunBatch(SharedConeBatch());
    for (const auto& r : traced.results) ASSERT_TRUE(r.ok()) << r.status();
    spans = CollectSpans().size();
  }
  ASSERT_GT(spans, 0u);
  const double overhead_ms = per_span_ms * static_cast<double>(spans);
  EXPECT_LE(overhead_ms, 0.02 * untraced.stats.wall_ms)
      << spans << " spans at " << per_span_ms * 1e6 << " ns each";
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
