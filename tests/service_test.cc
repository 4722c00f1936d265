// Tests for the measurement serving layer (src/service/): batch results
// bit-identical to sequential ComputeNu for any thread count and batch
// order, request-level memoization (a repeated batch samples nothing),
// cross-request body sharing through the estimate cache, and concurrent
// callers serialized on one service.

#include <algorithm>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/convex/canonical.h"
#include "src/measure/fpras.h"
#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/request_key.h"

namespace mudb::service {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using measure::MeasureOptions;
using measure::MeasureResult;
using measure::Method;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

// A 3-D union of two opposite orthant cones: multi-body FPRAS with an
// active Karp–Luby stage.
RealFormula ConeUnion() {
  std::vector<RealFormula> pos, neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
    neg.push_back(RealFormula::Cmp(Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> ors{RealFormula::And(std::move(pos)),
                               RealFormula::And(std::move(neg))};
  return RealFormula::Or(std::move(ors));
}

// A single halfspace through the origin-ish: one FPRAS body, no Karp–Luby.
RealFormula Halfspace3D(double c0, double c1, double c2) {
  return RealFormula::Cmp(C(c0) * Z(0) + C(c1) * Z(1) + C(c2) * Z(2) - C(1),
                          CmpOp::kLt);
}

// Nonlinear, three variables: forced onto the AFPRAS.
RealFormula Nonlinear3D() {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(0) * Z(1) - Z(2), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(0) - Z(1) - Z(2), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

MeasureOptions Opts(Method method, double epsilon, uint64_t seed) {
  MeasureOptions o;
  o.method = method;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

// The mixed battery used by the parity tests: FPRAS multi-body, FPRAS
// single-body, AFPRAS, exact-2d via kAuto, and repeated entries.
std::vector<MeasureRequest> MixedBattery() {
  std::vector<MeasureRequest> reqs;
  reqs.push_back(
      MeasureRequest::Nu(ConeUnion(), Opts(Method::kFpras, 0.3, 11)));
  reqs.push_back(
      MeasureRequest::Nu(Halfspace3D(1, 1, 1), Opts(Method::kFpras, 0.3, 12)));
  reqs.push_back(
      MeasureRequest::Nu(Nonlinear3D(), Opts(Method::kAfpras, 0.05, 13)));
  std::vector<RealFormula> two;
  two.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  two.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  reqs.push_back(
      MeasureRequest::Nu(RealFormula::And(std::move(two)),
                         Opts(Method::kAuto, 0.1, 14)));
  // Same formula as request 0, same seed: the service may memoize, and the
  // result must still equal a standalone sequential call.
  reqs.push_back(
      MeasureRequest::Nu(ConeUnion(), Opts(Method::kFpras, 0.3, 11)));
  // Same formula, different seed: must NOT be conflated with request 0.
  reqs.push_back(
      MeasureRequest::Nu(ConeUnion(), Opts(Method::kFpras, 0.3, 99)));
  return reqs;
}

std::vector<MeasureResult> SequentialBaseline(
    const std::vector<MeasureRequest>& reqs) {
  std::vector<MeasureResult> out;
  for (const MeasureRequest& req : reqs) {
    auto r = measure::ComputeNu(*req.formula, req.options);
    EXPECT_TRUE(r.ok()) << r.status();
    out.push_back(*r);
  }
  return out;
}

TEST(ServiceTest, BatchBitIdenticalToSequentialAcrossThreadCounts) {
  std::vector<MeasureRequest> reqs = MixedBattery();
  std::vector<MeasureResult> baseline = SequentialBaseline(reqs);
  for (int threads : {1, 2, 8}) {
    ServiceOptions sopts;
    sopts.num_threads = threads;
    MeasureService service(sopts);
    auto outcome = service.RunBatch(MixedBattery());
    ASSERT_EQ(outcome.results.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_TRUE(outcome.results[i].ok()) << outcome.results[i].status();
      EXPECT_EQ(outcome.results[i]->value, baseline[i].value)
          << "request " << i << ", threads " << threads;
      EXPECT_EQ(outcome.results[i]->method_used, baseline[i].method_used);
    }
    EXPECT_EQ(outcome.stats.requests,
              static_cast<int64_t>(baseline.size()));
  }
}

TEST(ServiceTest, BatchBitIdenticalUnderShuffledBatchOrder) {
  std::vector<MeasureRequest> reqs = MixedBattery();
  std::vector<MeasureResult> baseline = SequentialBaseline(reqs);
  std::mt19937_64 gen(7);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), gen);

    MeasureService service;
    std::vector<MeasureRequest> shuffled;
    for (size_t pos : order) shuffled.push_back(reqs[pos]);
    auto outcome = service.RunBatch(std::move(shuffled));
    ASSERT_EQ(outcome.results.size(), order.size());
    for (size_t b = 0; b < order.size(); ++b) {
      ASSERT_TRUE(outcome.results[b].ok()) << outcome.results[b].status();
      EXPECT_EQ(outcome.results[b]->value, baseline[order[b]].value)
          << "request " << order[b] << ", round " << round;
    }
  }
}

TEST(ServiceTest, ConcurrentBatchesAreSerialized) {
  // Two callers share one service and its 2-thread pool, which admits one
  // ParallelFor submitter at a time: RunBatch must run their batches one
  // after the other (CI runs this suite under TSan), and both outcomes
  // must equal the sequential baseline.
  std::vector<MeasureResult> baseline = SequentialBaseline(MixedBattery());
  ServiceOptions sopts;
  sopts.num_threads = 2;
  MeasureService service(sopts);
  MeasureService::BatchOutcome outcomes[2];
  std::thread first([&] { outcomes[0] = service.RunBatch(MixedBattery()); });
  std::thread second([&] { outcomes[1] = service.RunBatch(MixedBattery()); });
  first.join();
  second.join();
  for (const MeasureService::BatchOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.results.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_TRUE(outcome.results[i].ok()) << outcome.results[i].status();
      EXPECT_EQ(outcome.results[i]->value, baseline[i].value)
          << "request " << i;
    }
  }
  EXPECT_EQ(service.lifetime_stats().requests,
            2 * static_cast<int64_t>(baseline.size()));
}

TEST(ServiceTest, SecondIdenticalBatchPerformsZeroSampling) {
  MeasureService service;
  auto first = service.RunBatch(MixedBattery());
  // The battery contains one exact duplicate, so even the first batch
  // memoizes once; everything else executes and samples.
  EXPECT_EQ(first.stats.request_cache_hits, 1);
  EXPECT_GT(first.stats.sampling_steps, 0);
  EXPECT_GT(first.stats.samples, 0);

  auto second = service.RunBatch(MixedBattery());
  EXPECT_EQ(second.stats.request_cache_hits, second.stats.requests);
  EXPECT_EQ(second.stats.sampling_steps, 0);
  EXPECT_EQ(second.stats.samples, 0);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    ASSERT_TRUE(second.results[i].ok());
    EXPECT_EQ(second.results[i]->value, first.results[i]->value);
  }
}

TEST(ServiceTest, OrderPreservingRenumberingIsARequestMemoHit) {
  // A database write shifts later nulls' z-indices but keeps their order.
  // Every engine measures the compacted formula, and the memo keys it, so
  // the shifted request is served without sampling — bit-identical to
  // measuring it directly. With use_z3_shortcuts (live in a MUDB_WITH_Z3
  // build) the solver reads the compacted formula too: the empty wedge is
  // its unsat certificate, and the other two fall through to the exact 2-D
  // engine and the AFPRAS.
  MeasureOptions shortcuts = Opts(Method::kAuto, 0.05, 11);
  shortcuts.use_z3_shortcuts = true;
  std::vector<RealFormula> wedge;
  wedge.push_back(RealFormula::Cmp(Z(0), CmpOp::kLt));
  wedge.push_back(RealFormula::Cmp(-Z(2), CmpOp::kLt));
  wedge.push_back(RealFormula::Cmp(Z(2) - Z(0), CmpOp::kLt));
  const std::pair<RealFormula, MeasureOptions> cases[] = {
      {ConeUnion(), Opts(Method::kFpras, 0.3, 11)},
      {RealFormula::And(std::move(wedge)), shortcuts},
      {RealFormula::Cmp(Z(0) - Z(2), CmpOp::kLt), shortcuts},
      {Nonlinear3D(), shortcuts},
  };
  for (const auto& [formula, opts] : cases) {
    SCOPED_TRACE(formula.ToString());
    const RealFormula shifted = formula.RemapVariables({4, 17, 30});
    std::vector<MeasureRequest> batch;
    batch.push_back(MeasureRequest::Nu(formula, opts));
    batch.push_back(MeasureRequest::Nu(shifted, opts));
    MeasureService service;
    auto outcome = service.RunBatch(std::move(batch));
    EXPECT_EQ(outcome.stats.requests, 2);
    EXPECT_EQ(outcome.stats.request_cache_hits, 1);
    ASSERT_TRUE(outcome.results[0].ok());
    ASSERT_TRUE(outcome.results[1].ok());
    auto direct = measure::ComputeNu(shifted, opts);
    ASSERT_TRUE(direct.ok());
    if (!direct->is_exact) {
      EXPECT_GT(direct->samples + direct->sampling_steps, 0);
    }
    for (const MeasureResult& r : {*outcome.results[0], *outcome.results[1]}) {
      EXPECT_EQ(r.value, direct->value);
      EXPECT_EQ(r.ci_lo, direct->ci_lo);
      EXPECT_EQ(r.ci_hi, direct->ci_hi);
      EXPECT_EQ(r.is_exact, direct->is_exact);
      EXPECT_EQ(r.method_used, direct->method_used);
      EXPECT_EQ(r.samples, direct->samples);
      EXPECT_EQ(r.sampling_steps, direct->sampling_steps);
      EXPECT_EQ(r.sampled_dimension, direct->sampled_dimension);
    }
  }
}

// The shared orthant cone as its own formula (the conjunction disjunct of
// ConeUnion-style unions).
RealFormula SharedCone() {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  return RealFormula::And(std::move(parts));
}

TEST(ServiceTest, CrossRequestBodySharingHitsTheEstimateCache) {
  // Two *different* requests whose groundings share one byte-identical
  // convex body — F1 is a single shared cone, F2 is (shared cone) ∨
  // (private cone) — with the same seed: the request memo misses, the body
  // cache serves the shared estimate, and both results stay bit-identical
  // to standalone evaluation.
  RealFormula f1 = SharedCone();
  std::vector<RealFormula> ors{SharedCone(),
                               RealFormula::And([] {
                                 std::vector<RealFormula> v;
                                 v.push_back(RealFormula::Cmp(
                                     Z(0) + C(2) * Z(1), CmpOp::kLt));
                                 v.push_back(RealFormula::Cmp(
                                     Z(1) + Z(2), CmpOp::kLt));
                                 v.push_back(RealFormula::Cmp(Z(2),
                                                              CmpOp::kLt));
                                 return v;
                               }())};
  RealFormula f2 = RealFormula::Or(std::move(ors));
  MeasureOptions opts = Opts(Method::kFpras, 0.3, 21);

  // The exposed front half proves the premise: the two requests really do
  // produce one byte-identical body (equal canonical keys AND equal raw
  // fingerprints, inner seeding included) — without paying for sampling.
  measure::FprasOptions fopts;
  auto set1 = measure::BuildFprasBodies(f1, fopts);
  auto set2 = measure::BuildFprasBodies(f2, fopts);
  ASSERT_TRUE(set1.ok());
  ASSERT_TRUE(set2.ok());
  ASSERT_EQ(set1->bodies.size(), 1u);
  ASSERT_EQ(set2->bodies.size(), 2u);
  const volume::SeededBody& shared1 = set1->bodies[0];
  const volume::SeededBody& shared2 = set2->bodies[0];
  EXPECT_EQ(convex::CanonicalizeBody(shared1.body),
            convex::CanonicalizeBody(shared2.body));
  EXPECT_EQ(convex::RawBodyFingerprint(shared1.body, shared1.inner.center,
                                       shared1.inner.radius,
                                       shared1.outer_radius_bound),
            convex::RawBodyFingerprint(shared2.body, shared2.inner.center,
                                       shared2.inner.radius,
                                       shared2.outer_radius_bound));

  auto direct1 = measure::ComputeNu(f1, opts);
  auto direct2 = measure::ComputeNu(f2, opts);
  ASSERT_TRUE(direct1.ok());
  ASSERT_TRUE(direct2.ok());

  MeasureService service;
  auto outcome = service.RunBatch(
      {MeasureRequest::Nu(f1, opts), MeasureRequest::Nu(f2, opts)});
  ASSERT_TRUE(outcome.results[0].ok());
  ASSERT_TRUE(outcome.results[1].ok());
  EXPECT_EQ(outcome.results[0]->value, direct1->value);
  EXPECT_EQ(outcome.results[1]->value, direct2->value);
  EXPECT_EQ(outcome.stats.request_cache_hits, 0);
  EXPECT_EQ(outcome.stats.body_cache_hits, 1);
  EXPECT_EQ(service.body_cache_stats().hits, 1);
  EXPECT_GT(service.body_cache_steps_saved(), 0);
}

TEST(ServiceTest, CanonicallyEqualButRawDifferentBodiesDoNotShare) {
  // Rescaled constraint rows are the same body *canonically*, but a volume
  // estimate is a bitwise-pure function of the raw representation walked
  // (LP seeding, chord arithmetic), so the cache deliberately keys on the
  // raw form too: no sharing here, and each request stays bit-identical to
  // its own standalone evaluation.
  RealFormula f1 = Halfspace3D(1, 2, 3);
  RealFormula f2 = RealFormula::Cmp(
      C(2) * Z(0) + C(4) * Z(1) + C(6) * Z(2) - C(2), CmpOp::kLt);
  measure::FprasOptions fopts;
  auto set1 = measure::BuildFprasBodies(f1, fopts);
  auto set2 = measure::BuildFprasBodies(f2, fopts);
  ASSERT_TRUE(set1.ok());
  ASSERT_TRUE(set2.ok());
  EXPECT_EQ(convex::CanonicalizeBody(set1->bodies[0].body),
            convex::CanonicalizeBody(set2->bodies[0].body));

  MeasureOptions opts = Opts(Method::kFpras, 0.3, 22);
  auto direct1 = measure::ComputeNu(f1, opts);
  auto direct2 = measure::ComputeNu(f2, opts);
  ASSERT_TRUE(direct1.ok());
  ASSERT_TRUE(direct2.ok());

  MeasureService service;
  auto outcome = service.RunBatch(
      {MeasureRequest::Nu(f1, opts), MeasureRequest::Nu(f2, opts)});
  ASSERT_TRUE(outcome.results[0].ok());
  ASSERT_TRUE(outcome.results[1].ok());
  EXPECT_EQ(outcome.results[0]->value, direct1->value);
  EXPECT_EQ(outcome.results[1]->value, direct2->value);
  EXPECT_EQ(outcome.stats.body_cache_hits, 0);
}

TEST(ServiceTest, RequestSignatureSeparatesOptionsAndFormulas) {
  RealFormula f = ConeUnion();
  MeasureOptions base = Opts(Method::kFpras, 0.3, 1);
  convex::CanonicalBodyKey k = RequestSignature(f, base);
  EXPECT_EQ(k, RequestSignature(f, base));

  MeasureOptions other_seed = base;
  other_seed.seed = 2;
  EXPECT_NE(k, RequestSignature(f, other_seed));

  MeasureOptions other_eps = base;
  other_eps.epsilon = 0.2;
  EXPECT_NE(k, RequestSignature(f, other_eps));

  MeasureOptions other_method = base;
  other_method.method = Method::kAfpras;
  EXPECT_NE(k, RequestSignature(f, other_method));

  // The pool cannot change a result, so it must not fragment the memo.
  util::ThreadPool pool(2);
  MeasureOptions other_pool = base;
  other_pool.pool = &pool;
  EXPECT_EQ(k, RequestSignature(f, other_pool));

  EXPECT_NE(k, RequestSignature(Halfspace3D(1, 1, 1), base));

  // The key is the compacted formula's: an order-preserving renumbering
  // shares it. Swapping two variables of an asymmetric formula may change
  // its estimate, so the key must change too.
  const RealFormula skewed = Halfspace3D(1, 2, 3);
  const convex::CanonicalBodyKey skewed_key = RequestSignature(skewed, base);
  EXPECT_EQ(k, RequestSignature(f.RemapVariables({4, 17, 30}), base));
  EXPECT_EQ(skewed_key,
            RequestSignature(skewed.RemapVariables({3, 9, 40}), base));
  EXPECT_NE(skewed_key,
            RequestSignature(skewed.RemapVariables({1, 0, 2}), base));
  EXPECT_NE(skewed_key,
            RequestSignature(skewed.RemapVariables({0, 2, 1}), base));
}

// One request through a one-request batch.
util::StatusOr<MeasureResult> RunOne(MeasureService& service,
                                     MeasureRequest request) {
  std::vector<MeasureRequest> batch;
  batch.push_back(std::move(request));
  return std::move(service.RunBatch(std::move(batch)).results[0]);
}

TEST(ServiceTest, MalformedAndFailingRequestsSurfaceTheirStatus) {
  MeasureService service;
  // No formula.
  auto empty = RunOne(service, MeasureRequest{});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), util::StatusCode::kInvalidArgument);

  // Nonlinear formula forced onto the FPRAS: the engine error propagates.
  auto bad = RunOne(service, MeasureRequest::Nu(Nonlinear3D(),
                                                Opts(Method::kFpras, 0.3, 1)));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);

  // Errors are not memoized: a failing request followed by an identical one
  // fails identically (and nothing cached a half-result).
  EXPECT_FALSE(RunOne(service, MeasureRequest::Nu(Nonlinear3D(),
                                                  Opts(Method::kFpras, 0.3, 1)))
                   .ok());
  EXPECT_EQ(service.result_cache_stats().entries, 0);
}

TEST(ServiceTest, DegenerateOptionsFailIdenticallyOnBothPaths) {
  // δ/ε validation happens once at the boundary: the direct API and the
  // service reject the same degenerate options with the same code, and
  // nothing is executed or memoized.
  RealFormula f = ConeUnion();
  for (auto [eps, delta] : std::vector<std::pair<double, double>>{
           {0.3, 0.0}, {0.3, 2.0}, {0.0, 0.25}, {1.5, 0.25}}) {
    MeasureOptions bad = Opts(Method::kFpras, eps, 5);
    bad.delta = delta;
    auto direct = measure::ComputeNu(f, bad);
    EXPECT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), util::StatusCode::kInvalidArgument);

    MeasureService service;
    auto served = RunOne(service, MeasureRequest::Nu(f, bad));
    EXPECT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(served.status().message(), direct.status().message());
    EXPECT_EQ(service.result_cache_stats().entries, 0);
    EXPECT_EQ(service.lifetime_stats().sampling_steps, 0);
  }
}

}  // namespace
}  // namespace mudb::service
