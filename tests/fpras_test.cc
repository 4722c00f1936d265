// Tests for the FPRAS of Thm. 7.1 (CQ(+,<) images: linear constraint DNFs).

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/measure/fpras.h"
#include "src/measure/nu_exact.h"
#include "src/util/rng.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

TEST(FprasTest, ConstantsAreTrivial) {
  FprasOptions opts;
  util::Rng rng(1);
  auto t = FprasConjunctive(RealFormula::True(), opts, rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->trivial);
  EXPECT_DOUBLE_EQ(t->estimate, 1.0);
  auto f = FprasConjunctive(RealFormula::False(), opts, rng);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->estimate, 0.0);
}

TEST(FprasTest, ReportsMultiplicativeConfidenceInterval) {
  FprasOptions opts;
  opts.epsilon = 0.2;
  util::Rng rng(4);
  auto r = FprasConjunctive(
      RealFormula::Cmp(Z(0) + Z(1) - C(1), CmpOp::kLt), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->ci_lo, r->estimate / 1.2);
  EXPECT_DOUBLE_EQ(r->ci_hi, std::min(1.0, r->estimate / 0.8));

  // Trivial answers collapse to a point.
  util::Rng rng2(4);
  auto t = FprasConjunctive(RealFormula::True(), opts, rng2);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ci_lo, 1.0);
  EXPECT_EQ(t->ci_hi, 1.0);
}

TEST(FprasTest, RejectsNonlinear) {
  FprasOptions opts;
  util::Rng rng(1);
  auto r = FprasConjunctive(RealFormula::Cmp(Z(0) * Z(1), CmpOp::kLt), opts,
                            rng);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(FprasTest, RejectsBadEpsilon) {
  // Both entry points check ε, NaN included: it sizes the sample budgets
  // and inverts into the confidence interval.
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  auto bodies = BuildFprasBodies(f, FprasOptions{});
  ASSERT_TRUE(bodies.ok());
  for (double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    FprasOptions opts;
    opts.epsilon = bad;
    util::Rng rng(1);
    auto end_to_end = FprasConjunctive(f, opts, rng);
    EXPECT_FALSE(end_to_end.ok()) << bad;
    EXPECT_EQ(end_to_end.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
    auto back_half = FprasFromBodies(*bodies, opts, rng);
    EXPECT_FALSE(back_half.ok()) << bad;
    EXPECT_EQ(back_half.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(FprasTest, DnfOverTheCapIsResourceExhausted) {
  // (a1 ∨ b1) ∧ ... ∧ (a13 ∨ b13) has 2^13 disjuncts, over the cap of 4096.
  std::vector<RealFormula> clauses;
  for (int i = 0; i < 13; ++i) {
    std::vector<RealFormula> ors;
    ors.push_back(RealFormula::Cmp(Z(2 * i), CmpOp::kLt));
    ors.push_back(RealFormula::Cmp(Z(2 * i + 1), CmpOp::kLt));
    clauses.push_back(RealFormula::Or(ors));
  }
  FprasOptions opts;
  util::Rng rng(1);
  auto r = FprasConjunctive(RealFormula::And(clauses), opts, rng);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(FprasTest, HalfspaceIsHalf) {
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(2);
  auto r = FprasConjunctive(
      RealFormula::Cmp(Z(0) + Z(1) - C(3), CmpOp::kLt), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.05);
  EXPECT_EQ(r->active_disjuncts, 1);
}

TEST(FprasTest, QuadrantIn2D) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(3);
  auto r = FprasConjunctive(RealFormula::And(parts), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.25, 0.03);
}

TEST(FprasTest, OrthantIn3D) {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(4);
  auto r = FprasConjunctive(RealFormula::And(parts), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.125, 0.02);
}

TEST(FprasTest, DisjunctionOfOppositeQuadrants) {
  auto quad = [](int s) {
    std::vector<RealFormula> parts;
    parts.push_back(RealFormula::Cmp(C(-s) * Z(0), CmpOp::kLt));
    parts.push_back(RealFormula::Cmp(C(-s) * Z(1), CmpOp::kLt));
    return RealFormula::And(std::move(parts));
  };
  std::vector<RealFormula> ors{quad(1), quad(-1)};
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(5);
  auto r = FprasConjunctive(RealFormula::Or(ors), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.05);
  EXPECT_EQ(r->active_disjuncts, 2);
}

TEST(FprasTest, EqualityDisjunctHasMeasureZero) {
  auto eq = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kEq);
  FprasOptions opts;
  util::Rng rng(6);
  auto r = FprasConjunctive(eq, opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 0.0);
  EXPECT_EQ(r->active_disjuncts, 0);
}

TEST(FprasTest, DisequalityIgnored) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(Z(0) - Z(1), CmpOp::kNeq));
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(7);
  auto r = FprasConjunctive(RealFormula::And(parts), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.05);
}

TEST(FprasTest, InfeasibleConjunction) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(0), CmpOp::kLt));   // z0 < 0
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));  // z0 > 0
  FprasOptions opts;
  util::Rng rng(8);
  auto r = FprasConjunctive(RealFormula::And(parts), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 0.0);
}

TEST(FprasTest, ConstantOffsetsVanishUnderHomogenization) {
  // z0 < 1000 is asymptotically the halfspace z0 < 0.
  FprasOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(9);
  auto r = FprasConjunctive(
      RealFormula::Cmp(Z(0) - C(1000), CmpOp::kLt), opts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.08);
}

// Property: FPRAS agrees with the exact 2-D engine on random linear sector
// formulas (multiplicative error within a generous band).
class FprasAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(FprasAccuracyTest, AgreesWithExact2D) {
  util::Rng formula_rng(GetParam());
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<RealFormula> parts;
    for (int i = 0; i < 2; ++i) {
      Polynomial p = C(formula_rng.Uniform(-1, 1)) * Z(0) +
                     C(formula_rng.Uniform(-1, 1)) * Z(1);
      parts.push_back(RealFormula::Cmp(p, CmpOp::kLe));
    }
    RealFormula f = RealFormula::And(parts);
    if (f.is_constant()) continue;
    auto exact = NuExact2D(f);
    ASSERT_TRUE(exact.ok());
    if (*exact < 0.02) continue;  // relative guarantee is vacuous near 0
    FprasOptions opts;
    opts.epsilon = 0.05;
    util::Rng rng(GetParam() * 37 + iter);
    auto approx = FprasConjunctive(f, opts, rng);
    ASSERT_TRUE(approx.ok());
    EXPECT_LT(std::fabs(approx->estimate / *exact - 1.0), 0.2)
        << "exact " << *exact << " approx " << approx->estimate;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FprasAccuracyTest,
                         ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace mudb::measure
