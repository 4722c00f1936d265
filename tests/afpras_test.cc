// Tests for the AFPRAS of Thm. 8.1.

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/measure/afpras.h"
#include "src/measure/nu_exact.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

TEST(SampleCountTest, MatchesHoeffdingBound) {
  // m = ln(2/δ) / (2 ε²).
  EXPECT_EQ(AfprasSampleCount(0.1, 0.25),
            static_cast<int64_t>(std::ceil(std::log(8.0) / 0.02)));
  // Smaller ε or δ needs more samples.
  EXPECT_GT(AfprasSampleCount(0.01, 0.25), AfprasSampleCount(0.1, 0.25));
  EXPECT_GT(AfprasSampleCount(0.1, 0.01), AfprasSampleCount(0.1, 0.25));
  // The paper's m >= ε^{-2} for δ = 1/4 is within a small constant.
  EXPECT_GE(AfprasSampleCount(0.05, 0.25), 400);
}

TEST(AfprasTest, ConstantFormulaExact) {
  AfprasOptions opts;
  util::Rng rng(1);
  auto t = Afpras(RealFormula::True(), opts, rng);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->estimate, 1.0);
  EXPECT_EQ(t->samples, 0);
  auto f = Afpras(RealFormula::False(), opts, rng);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->estimate, 0.0);
}

TEST(AfprasTest, RejectsBadEpsilon) {
  // NaN fails like every other ε outside (0, 1], with a Status, before
  // AfprasSampleCount's invariant check could abort.
  for (double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    AfprasOptions opts;
    opts.epsilon = bad;
    util::Rng rng(1);
    auto r = Afpras(RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt), opts, rng);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << bad;
  }
}

TEST(AfprasTest, RejectsBadDelta) {
  // δ was previously forwarded unchecked into AfprasSampleCount.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0, 2.0}) {
    AfprasOptions opts;
    opts.delta = bad;
    util::Rng rng(1);
    auto r = Afpras(RealFormula::Cmp(Z(0), CmpOp::kLt), opts, rng);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(AfprasTest, ReportsAdditiveConfidenceInterval) {
  AfprasOptions opts;
  opts.epsilon = 0.08;
  util::Rng rng(3);
  auto r = Afpras(RealFormula::Cmp(Z(0) + Z(1), CmpOp::kLt), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->ci_lo, std::max(0.0, r->estimate - 0.08));
  EXPECT_DOUBLE_EQ(r->ci_hi, std::min(1.0, r->estimate + 0.08));

  // Exact answers collapse to a point.
  util::Rng rng2(3);
  auto t = Afpras(RealFormula::True(), opts, rng2);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->exact);
  EXPECT_EQ(t->ci_lo, 1.0);
  EXPECT_EQ(t->ci_hi, 1.0);
}

TEST(AfprasTest, HalfspaceConvergesToHalf) {
  AfprasOptions opts;
  opts.num_samples = 100000;
  util::Rng rng(2);
  auto r = Afpras(RealFormula::Cmp(Z(0) + Z(1) - Z(2), CmpOp::kLt), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.01);
  EXPECT_EQ(r->sampled_dimension, 3);
}

TEST(AfprasTest, OrthantIn4D) {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 4; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  AfprasOptions opts;
  opts.num_samples = 200000;
  util::Rng rng(3);
  auto r = Afpras(RealFormula::And(parts), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 1.0 / 16, 0.005);
}

TEST(AfprasTest, NonlinearFormula) {
  // z0² + z1² > 2 z0 z1 ⟺ (z0-z1)² > 0: true except on the diagonal: ν = 1.
  RealFormula f = RealFormula::Cmp(
      Z(0) * Z(0) + Z(1) * Z(1) - C(2) * Z(0) * Z(1), CmpOp::kGt);
  AfprasOptions opts;
  opts.num_samples = 20000;
  util::Rng rng(4);
  auto r = Afpras(f, opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 1.0, 1e-9);
}

TEST(AfprasTest, DeterministicGivenSeed) {
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  AfprasOptions opts;
  opts.num_samples = 5000;
  util::Rng rng1(9), rng2(9);
  auto a = Afpras(f, opts, rng1);
  auto b = Afpras(f, opts, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
}

TEST(AfprasTest, ParallelSamplingIsDeterministicAndAccurate) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  RealFormula f = RealFormula::And(parts);  // quadrant: ν = 1/4
  util::ThreadPool pool(8);
  AfprasOptions opts;
  opts.num_samples = 200000;
  opts.pool = &pool;
  util::Rng rng1(77), rng2(77);
  auto a = Afpras(f, opts, rng1);
  auto b = Afpras(f, opts, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);  // scheduling-independent
  EXPECT_NEAR(a->estimate, 0.25, 0.01);
  // Substreams are carved by the sample budget, not the thread count, so a
  // different pool, or none, gives the bit-identical estimate.
  util::ThreadPool small_pool(2);
  opts.pool = &small_pool;
  util::Rng rng3(77);
  auto c = Afpras(f, opts, rng3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->estimate, a->estimate);
  opts.pool = nullptr;
  util::Rng rng4(77);
  auto d = Afpras(f, opts, rng4);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->estimate, a->estimate);
}

// Property: the additive guarantee |estimate − ν| < ε holds with margin on
// formulas whose exact value the 2-D engine provides.
class AfprasAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(AfprasAccuracyTest, WithinEpsilonOfExact2D) {
  util::Rng formula_rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    // Random sector formula over 2 variables.
    std::vector<RealFormula> parts;
    for (int i = 0; i < 3; ++i) {
      Polynomial p = C(formula_rng.Uniform(-1, 1)) * Z(0) +
                     C(formula_rng.Uniform(-1, 1)) * Z(1) +
                     C(formula_rng.Uniform(-1, 1));
      parts.push_back(RealFormula::Cmp(p, CmpOp::kLt));
    }
    RealFormula f = formula_rng.Bernoulli(0.5) ? RealFormula::And(parts)
                                               : RealFormula::Or(parts);
    if (f.is_constant()) continue;
    auto exact = NuExact2D(f);
    ASSERT_TRUE(exact.ok());
    AfprasOptions opts;
    opts.epsilon = 0.02;
    opts.delta = 0.001;  // high confidence so the test is stable
    util::Rng rng(GetParam() * 100 + iter);
    auto approx = Afpras(f, opts, rng);
    ASSERT_TRUE(approx.ok());
    EXPECT_LT(std::fabs(approx->estimate - *exact), 0.02)
        << "iter " << iter << " exact " << *exact;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AfprasAccuracyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mudb::measure
