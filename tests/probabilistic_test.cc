// Tests for the §10 probabilistic-measure extension (distributions on nulls).

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/measure/probabilistic.h"
#include "src/util/rng.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

AfprasOptions ManySamples() {
  AfprasOptions opts;
  opts.num_samples = 300000;
  return opts;
}

TEST(DistributionTest, SampleStatistics) {
  util::Rng rng(1);
  const int n = 100000;
  double usum = 0, gsum = 0, gsum2 = 0, esum = 0;
  Distribution uni = Distribution::Uniform(2, 4);
  Distribution gauss = Distribution::Gaussian(5, 2);
  Distribution expo = Distribution::Exponential(0.5);
  for (int i = 0; i < n; ++i) {
    double u = uni.Sample(rng);
    EXPECT_GE(u, 2.0);
    EXPECT_LE(u, 4.0);
    usum += u;
    double g = gauss.Sample(rng);
    gsum += g;
    gsum2 += g * g;
    double e = expo.Sample(rng);
    EXPECT_GE(e, 0.0);
    esum += e;
  }
  EXPECT_NEAR(usum / n, 3.0, 0.02);
  EXPECT_NEAR(gsum / n, 5.0, 0.03);
  EXPECT_NEAR(gsum2 / n - 25.0, 4.0, 0.15);  // variance 4
  EXPECT_NEAR(esum / n, 2.0, 0.05);          // mean 1/rate
}

TEST(DistributionTest, PointMassIsDeterministic) {
  util::Rng rng(2);
  Distribution p = Distribution::Point(7.5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(p.Sample(rng), 7.5);
  }
}

TEST(DistributionTest, ToStringMentionsParameters) {
  EXPECT_NE(Distribution::Uniform(0, 1).ToString().find("Uniform"),
            std::string::npos);
  EXPECT_NE(Distribution::Exponential(2).ToString().find("Exp"),
            std::string::npos);
}

TEST(ProbabilisticTest, RejectsBadEpsilon) {
  // NaN fails like every other ε outside (0, 1], with a Status, before
  // AfprasSampleCount's invariant check could abort.
  for (double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    AfprasOptions opts;
    opts.epsilon = bad;
    util::Rng rng(1);
    auto r = ProbabilisticMeasure(RealFormula::Cmp(Z(0), CmpOp::kLt),
                                  {Distribution::Gaussian(0, 1)}, opts, rng);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ProbabilisticTest, RejectsBadDelta) {
  // δ was previously forwarded unchecked into AfprasSampleCount.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0, 2.0}) {
    AfprasOptions opts;
    opts.delta = bad;
    util::Rng rng(1);
    auto r = ProbabilisticMeasure(RealFormula::Cmp(Z(0), CmpOp::kLt),
                                  {Distribution::Gaussian(0, 1)}, opts, rng);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ProbabilisticTest, RejectsInvalidDistributionParameters) {
  // A non-finite parameter would sample NaN or ±∞ and report a confident
  // wrong answer, and lo > hi, sd <= 0 or rate <= 0 define no distribution:
  // each resolves to a Status naming the variable, never an abort.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  RealFormula f = RealFormula::Cmp(Z(0) - C(1), CmpOp::kLt);
  for (const Distribution& bad :
       {Distribution::Point(nan), Distribution::Uniform(0, inf),
        Distribution::Gaussian(inf, 1), Distribution::Uniform(2, 1),
        Distribution::Gaussian(0, 0), Distribution::Exponential(0)}) {
    util::Rng rng(1);
    auto r = ProbabilisticMeasure(f, {bad}, ManySamples(), rng);
    ASSERT_FALSE(r.ok()) << bad.ToString();
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("z0"), std::string::npos)
        << r.status();
  }
}

TEST(ProbabilisticTest, RequiresDistributionsForUsedVariables) {
  RealFormula f = RealFormula::Cmp(Z(1), CmpOp::kLt);
  util::Rng rng(3);
  auto r = ProbabilisticMeasure(f, {Distribution::Point(0)}, ManySamples(),
                                rng);
  EXPECT_FALSE(r.ok());
}

TEST(ProbabilisticTest, IidGaussiansAreExchangeable) {
  // P(z0 < z1) = 1/2 for iid normals.
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  util::Rng rng(4);
  auto r = ProbabilisticMeasure(
      f, {Distribution::Gaussian(3, 2), Distribution::Gaussian(3, 2)},
      ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.01);
}

TEST(ProbabilisticTest, UniformThreshold) {
  RealFormula f = RealFormula::Cmp(Z(0) - C(0.3), CmpOp::kLe);
  util::Rng rng(5);
  auto r = ProbabilisticMeasure(f, {Distribution::Uniform(0, 1)},
                                ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.3, 0.01);
}

TEST(ProbabilisticTest, ExponentialTail) {
  // P(z > 1) = e^{-rate} for Exp(rate).
  RealFormula f = RealFormula::Cmp(C(1) - Z(0), CmpOp::kLt);
  util::Rng rng(6);
  auto r = ProbabilisticMeasure(f, {Distribution::Exponential(1.0)},
                                ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, std::exp(-1.0), 0.01);
}

TEST(ProbabilisticTest, GaussianDifferenceClosedForm) {
  // z0 ~ N(0,1), z1 ~ N(1,1): P(z0 > z1) = Φ(-1/√2).
  RealFormula f = RealFormula::Cmp(Z(1) - Z(0), CmpOp::kLt);
  util::Rng rng(7);
  auto r = ProbabilisticMeasure(
      f, {Distribution::Gaussian(0, 1), Distribution::Gaussian(1, 1)},
      ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  double expected = 0.5 * std::erfc(1.0 / (std::sqrt(2.0) * std::sqrt(2.0)));
  EXPECT_NEAR(r->estimate, expected, 0.01);
}

TEST(ProbabilisticTest, PointMassesActAsImputation) {
  // All nulls imputed: the measure collapses to 0/1.
  RealFormula f = RealFormula::Cmp(Z(0) * Z(1) - C(5), CmpOp::kGt);
  util::Rng rng(8);
  auto yes = ProbabilisticMeasure(
      f, {Distribution::Point(3), Distribution::Point(2)}, ManySamples(),
      rng);
  ASSERT_TRUE(yes.ok());
  EXPECT_DOUBLE_EQ(yes->estimate, 1.0);
  auto no = ProbabilisticMeasure(
      f, {Distribution::Point(1), Distribution::Point(2)}, ManySamples(),
      rng);
  ASSERT_TRUE(no.ok());
  EXPECT_DOUBLE_EQ(no->estimate, 0.0);
}

TEST(ProbabilisticTest, NonlinearRegionUnderUniforms) {
  // P(x·y <= 1/4) on Uniform[0,1]^2 = 1/4 + (1/4)ln 4 (same region as the
  // conditional-measure test: uniform box ≡ bounded ranges).
  RealFormula f = RealFormula::Cmp(Z(0) * Z(1) - C(0.25), CmpOp::kLe);
  util::Rng rng(9);
  auto r = ProbabilisticMeasure(
      f, {Distribution::Uniform(0, 1), Distribution::Uniform(0, 1)},
      ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.25 + 0.25 * std::log(4.0), 0.01);
}

}  // namespace
}  // namespace mudb::measure
