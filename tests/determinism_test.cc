// Guards the parallel sampling runtime's determinism contract: every
// randomized estimator returns bit-identical results for any pool (or none)
// given the same seed (work is carved into RNG substreams by the workload,
// never by the thread count), and distinct seeds produce distinct sample
// paths (the substreams really are a function of the seed). Also guards the
// premise of the request-memo key: every engine measures a formula and an
// order-preserving renumbering of its variables bit-identically.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/measure/afpras.h"
#include "src/measure/conditional.h"
#include "src/measure/fpras.h"
#include "src/measure/measure.h"
#include "src/measure/probabilistic.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

// The pool axis: no pool (inline, the default) and pools of 1, 2 and 8.
constexpr int kThreadAxis[] = {0, 1, 2, 8};

std::unique_ptr<util::ThreadPool> PoolOf(int threads) {
  return threads > 0 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
}

// A 3-D disjunction of two cones: exercises the full FPRAS pipeline (two
// bodies, several annealing phases, the Karp–Luby loop).
RealFormula ConeUnion() {
  std::vector<RealFormula> pos;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> neg;
  for (int i = 0; i < 3; ++i) {
    neg.push_back(RealFormula::Cmp(Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> ors{RealFormula::And(std::move(pos)),
                               RealFormula::And(std::move(neg))};
  return RealFormula::Or(std::move(ors));
}

TEST(DeterminismTest, FprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    std::unique_ptr<util::ThreadPool> pool = PoolOf(threads);
    FprasOptions opts;
    opts.epsilon = 0.2;  // keep the battery fast; determinism is exact anyway
    opts.pool = pool.get();
    util::Rng rng(1234);
    auto r = FprasConjunctive(f, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, AfprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    std::unique_ptr<util::ThreadPool> pool = PoolOf(threads);
    AfprasOptions opts;
    opts.num_samples = 50000;  // > 1 chunk, uneven tail chunk
    opts.pool = pool.get();
    util::Rng rng(99);
    auto r = Afpras(f, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ConditionalAfprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  VarRanges ranges(3);
  ranges[0] = VarRange::Between(-1.0, 2.0);
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    std::unique_ptr<util::ThreadPool> pool = PoolOf(threads);
    AfprasOptions opts;
    opts.num_samples = 30000;
    opts.pool = pool.get();
    util::Rng rng(7);
    auto r = ConditionalAfpras(f, ranges, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ProbabilisticMeasureIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  const std::vector<Distribution> dists{Distribution::Gaussian(0.0, 1.0),
                                        Distribution::Uniform(-1.0, 2.0),
                                        Distribution::Exponential(1.5)};
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    std::unique_ptr<util::ThreadPool> pool = PoolOf(threads);
    AfprasOptions opts;
    opts.num_samples = 30000;  // > 1 chunk, uneven tail chunk
    opts.pool = pool.get();
    util::Rng rng(11);
    auto r = ProbabilisticMeasure(f, dists, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ComputeNuThreadsThePoolThrough) {
  // End-to-end through the dispatch layer: kFpras and kAfpras both reach
  // the pool, and the MeasureOptions seed pins the result.
  RealFormula f = ConeUnion();
  util::ThreadPool pool(8);
  for (Method method : {Method::kFpras, Method::kAfpras}) {
    MeasureOptions inline_opts;
    inline_opts.method = method;
    inline_opts.epsilon = method == Method::kFpras ? 0.2 : 0.02;
    MeasureOptions pooled = inline_opts;
    pooled.pool = &pool;
    auto a = ComputeNu(f, inline_opts);
    auto b = ComputeNu(f, pooled);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->value, b->value) << MethodToString(method);
  }
}

TEST(DeterminismTest, DistinctSeedsProduceDistinctSamplePaths) {
  // With continuous estimators, distinct substreams collide on the same
  // float with probability ~0; equality across several seeds would mean the
  // seed is being ignored somewhere in the substream plumbing.
  RealFormula f = ConeUnion();
  std::vector<double> fpras_estimates, afpras_estimates;
  util::ThreadPool pool(2);
  for (uint64_t seed : {1u, 2u, 3u}) {
    FprasOptions fopts;
    fopts.epsilon = 0.2;
    fopts.pool = &pool;
    util::Rng frng(seed);
    auto fr = FprasConjunctive(f, fopts, frng);
    ASSERT_TRUE(fr.ok());
    fpras_estimates.push_back(fr->estimate);

    AfprasOptions aopts;
    aopts.num_samples = 50000;
    aopts.pool = &pool;
    util::Rng arng(seed);
    auto ar = Afpras(f, aopts, arng);
    ASSERT_TRUE(ar.ok());
    afpras_estimates.push_back(ar->estimate);
  }
  EXPECT_NE(fpras_estimates[0], fpras_estimates[1]);
  EXPECT_NE(fpras_estimates[1], fpras_estimates[2]);
  EXPECT_NE(afpras_estimates[0], afpras_estimates[1]);
  EXPECT_NE(afpras_estimates[1], afpras_estimates[2]);
}

TEST(DeterminismTest, RepeatedCallsWithOneRngConsumeRandomness) {
  // The estimators fork the caller's Rng once per call, so averaging repeats
  // over a single Rng object draws genuinely fresh sample paths.
  RealFormula f = ConeUnion();
  util::Rng rng(13);
  AfprasOptions opts;
  opts.num_samples = 50000;
  auto a = Afpras(f, opts, rng);
  auto b = Afpras(f, opts, rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->estimate, b->estimate);

  util::Rng frng(13);
  FprasOptions fopts;
  fopts.epsilon = 0.2;
  auto fa = FprasConjunctive(f, fopts, frng);
  auto fb = FprasConjunctive(f, fopts, frng);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_NE(fa->estimate, fb->estimate);
}

TEST(DeterminismTest, SameSeedSameResultAcrossRepeats) {
  // The pool is stateful (persistent workers); repeated runs on one process
  // must not leak state between calls.
  RealFormula f = ConeUnion();
  util::ThreadPool pool(2);
  FprasOptions opts;
  opts.epsilon = 0.2;
  opts.pool = &pool;
  util::Rng rng1(5), rng2(5);
  auto a = FprasConjunctive(f, opts, rng1);
  auto b = FprasConjunctive(f, opts, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimate, b->estimate);
}

// ---- The premise of the request-memo key ------------------------------------
//
// service::RequestSignature keys RealFormula::Compacted(), so a formula and
// any order-preserving renumbering of its variables share a memo entry
// (service_test checks the key). That is sound only if every engine
// measures the two bit-identically; each input
// below is built once over the sparse indices {z3, z9, z40} and once over
// their compact form {z0, z1, z2}.

using Vars = std::array<int, 3>;
constexpr Vars kSparse = {3, 9, 40};
constexpr Vars kCompact = {0, 1, 2};

// Nonlinear and asymmetric in every variable: kAuto sends it to the AFPRAS.
RealFormula Nonlinear(const Vars& v) {
  std::vector<RealFormula> parts;
  parts.push_back(
      RealFormula::Cmp(Z(v[0]) * Z(v[1]) - C(1.5) * Z(v[2]), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(Z(v[2]) - C(2.0) * Z(v[0]), CmpOp::kGt));
  return RealFormula::Or(std::move(parts));
}

// Two skewed cones: the FPRAS reaches annealing and Karp–Luby.
RealFormula Cones(const Vars& v) {
  std::vector<RealFormula> first;
  first.push_back(RealFormula::Cmp(Z(v[0]) - C(0.5) * Z(v[1]), CmpOp::kLt));
  first.push_back(RealFormula::Cmp(-Z(v[2]), CmpOp::kLt));
  std::vector<RealFormula> second;
  second.push_back(RealFormula::Cmp(Z(v[1]) + C(2.0) * Z(v[2]), CmpOp::kLt));
  second.push_back(RealFormula::Cmp(Z(v[0]), CmpOp::kGt));
  std::vector<RealFormula> ors{RealFormula::And(std::move(first)),
                               RealFormula::And(std::move(second))};
  return RealFormula::Or(std::move(ors));
}

// An order formula: the exact order engine.
RealFormula Chain(const Vars& v) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(v[0]) - Z(v[1]), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(Z(v[2]) - C(1.0), CmpOp::kGt));
  return RealFormula::And(std::move(parts));
}

// Two of the three variables, nonlinear: the exact 2-D engine.
RealFormula Planar(const Vars& v) {
  Polynomial x = Z(v[1]);
  Polynomial y = Z(v[2]);
  return RealFormula::Cmp(x * x + x * y - C(3.0) * y * y, CmpOp::kLt);
}

// The positive quadrant of two variables, far apart in the sparse form: only
// the two used coordinates are sampled (§9).
RealFormula Quadrant(const Vars& v) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(v[0]), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(v[2]), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

void ExpectBitIdentical(const MeasureResult& a, const MeasureResult& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.ci_lo, b.ci_lo);
  EXPECT_EQ(a.ci_hi, b.ci_hi);
  EXPECT_EQ(a.is_exact, b.is_exact);
  EXPECT_EQ(a.method_used, b.method_used);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.sampling_steps, b.sampling_steps);
  EXPECT_EQ(a.sampled_dimension, b.sampled_dimension);
}

void ExpectBitIdentical(const AfprasResult& a, const AfprasResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.ci_lo, b.ci_lo);
  EXPECT_EQ(a.ci_hi, b.ci_hi);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.sampled_dimension, b.sampled_dimension);
}

TEST(CompactionTest, EveryMethodMeasuresARenumberingBitIdentically) {
  struct Case {
    Method method;
    RealFormula (*build)(const Vars&);
    double epsilon;
  };
  const Case cases[] = {
      {Method::kAuto, Nonlinear, 0.05},   {Method::kAuto, Chain, 0.05},
      {Method::kAuto, Planar, 0.05},      {Method::kExact2D, Planar, 0.05},
      {Method::kExact2D, Quadrant, 0.05}, {Method::kExactOrder, Chain, 0.05},
      {Method::kAfpras, Nonlinear, 0.05}, {Method::kAfpras, Quadrant, 0.02},
      {Method::kFpras, Cones, 0.3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(MethodToString(c.method)) + " on " +
                 c.build(kCompact).ToString());
    // Planar and Quadrant skip a variable, so their kCompact build is a
    // renumbering too; every build compacts to the same formula.
    RealFormula sparse = c.build(kSparse);
    std::vector<int> used;
    RealFormula compact = sparse.Compacted(&used);
    EXPECT_EQ(compact.ToString(), c.build(kCompact).Compacted().ToString());
    EXPECT_EQ(static_cast<int>(used.size()), compact.NumVariables());
    MeasureOptions opts;
    opts.method = c.method;
    opts.epsilon = c.epsilon;
    opts.seed = 17;
    auto a = ComputeNu(sparse, opts);
    auto b = ComputeNu(compact, opts);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    // Not a trivial 0/1: the estimate has something to disagree on.
    EXPECT_GT(a->value, 0.0);
    EXPECT_LT(a->value, 1.0);
    if (!a->is_exact) {
      EXPECT_GT(a->samples + a->sampling_steps, 0);
    }
    EXPECT_EQ(a->sampled_dimension, a->is_exact ? 0 : compact.NumVariables());
    ExpectBitIdentical(*a, *b);
    auto renumbered = ComputeNu(c.build(kCompact), opts);
    ASSERT_TRUE(renumbered.ok()) << renumbered.status();
    ExpectBitIdentical(*a, *renumbered);
  }
}

TEST(CompactionTest, ConditionalAfprasRangesFollowTheirVariables) {
  VarRanges sparse_ranges(41);
  VarRanges compact_ranges(3);
  sparse_ranges[3] = compact_ranges[0] = VarRange::Between(-1.0, 2.0);
  sparse_ranges[9] = compact_ranges[1] = VarRange::AtLeast(0.5);
  // z40 / z2 stays free; a range on a variable the formula does not use
  // marginalizes out.
  sparse_ranges[5] = VarRange::Between(0.0, 1.0);
  AfprasOptions opts;
  opts.num_samples = 30000;
  util::Rng rng1(23), rng2(23);
  auto a = ConditionalAfpras(Nonlinear(kSparse), sparse_ranges, opts, rng1);
  auto b = ConditionalAfpras(Nonlinear(kCompact), compact_ranges, opts, rng2);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_GT(a->estimate, 0.0);
  EXPECT_LT(a->estimate, 1.0);
  EXPECT_EQ(a->sampled_dimension, 3);
  ExpectBitIdentical(*a, *b);
}

TEST(CompactionTest, ProbabilisticMeasureDistributionsFollowTheirVariables) {
  const Distribution gauss = Distribution::Gaussian(0.0, 1.0);
  const Distribution uniform = Distribution::Uniform(-1.0, 2.0);
  const Distribution expo = Distribution::Exponential(1.5);
  std::vector<Distribution> sparse_dists(41, Distribution::Point(0.0));
  sparse_dists[3] = gauss;
  sparse_dists[9] = uniform;
  sparse_dists[40] = expo;
  const std::vector<Distribution> compact_dists{gauss, uniform, expo};
  AfprasOptions opts;
  opts.num_samples = 30000;
  util::Rng rng1(29), rng2(29);
  auto a = ProbabilisticMeasure(Nonlinear(kSparse), sparse_dists, opts, rng1);
  auto b =
      ProbabilisticMeasure(Nonlinear(kCompact), compact_dists, opts, rng2);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_GT(a->estimate, 0.0);
  EXPECT_LT(a->estimate, 1.0);
  ExpectBitIdentical(*a, *b);
}

}  // namespace
}  // namespace mudb::measure
