// Tests for the §10 integer lattice measure (Gauss-circle convergence).

#include <cmath>

#include <gtest/gtest.h>

#include "src/measure/nu_exact.h"
#include "tests/lattice.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

TEST(LatticeTest, ValidatesInput) {
  RealFormula f = RealFormula::Cmp(Z(0), CmpOp::kLt);
  EXPECT_FALSE(NuLatticeRatio(f, 0).ok());
  std::vector<RealFormula> parts;
  for (int i = 0; i < 4; ++i) {
    parts.push_back(RealFormula::Cmp(Z(i), CmpOp::kLt));
  }
  EXPECT_FALSE(NuLatticeRatio(RealFormula::And(parts), 5).ok());
  // Oversized enumeration.
  std::vector<RealFormula> three;
  for (int i = 0; i < 3; ++i) {
    three.push_back(RealFormula::Cmp(Z(i), CmpOp::kLt));
  }
  auto too_big = NuLatticeRatio(RealFormula::And(three), 1000);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(LatticeTest, TotalMatchesGaussCircleIn2D) {
  // #lattice points in B_r^2 ≈ πr².
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  auto r = NuLatticeRatio(f, 100);
  ASSERT_TRUE(r.ok());
  double expected = M_PI * 100.0 * 100.0;
  EXPECT_NEAR(static_cast<double>(r->total), expected, 0.01 * expected);
}

TEST(LatticeTest, HalfPlaneConvergesToHalf) {
  RealFormula f = RealFormula::Cmp(Z(0), CmpOp::kLt);  // z0 < 0 (1-D)
  auto sweep = LatticeSweep(f, {10, 40, 160});
  ASSERT_TRUE(sweep.ok());
  double prev_err = 1.0;
  for (const LatticeRatio& p : *sweep) {
    double err = std::fabs(p.ratio() - 0.5);
    EXPECT_LE(err, prev_err + 1e-12);  // error shrinks with the radius
    prev_err = err;
  }
  EXPECT_NEAR(sweep->back().ratio(), 0.5, 0.01);
}

TEST(LatticeTest, QuadrantConvergesToQuarter) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  RealFormula f = RealFormula::And(parts);
  auto r = NuLatticeRatio(f, 150);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->ratio(), 0.25, 0.01);
}

TEST(LatticeTest, OrthantIn3D) {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  auto r = NuLatticeRatio(RealFormula::And(parts), 30);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->ratio(), 0.125, 0.02);
}

TEST(LatticeTest, AgreesWithRealMeasureOnSectors) {
  // ν and μ_Z agree asymptotically (the §10 Gauss-circle argument); check a
  // non-axis-aligned sector against the exact 2-D real measure.
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(1) - C(2) * Z(0), CmpOp::kLe));
  parts.push_back(RealFormula::Cmp(-Z(1) - Z(0), CmpOp::kLt));
  RealFormula f = RealFormula::And(parts);
  auto exact = NuExact2D(f);
  ASSERT_TRUE(exact.ok());
  auto lattice = NuLatticeRatio(f, 200);
  ASSERT_TRUE(lattice.ok());
  EXPECT_NEAR(lattice->ratio(), *exact, 0.01);
}

TEST(LatticeTest, BoundedRegionsVanishAsymptotically) {
  // {|z| <= 5} has measure 0 in the limit; at finite r the ratio is small
  // and decreasing.
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(0) - C(5), CmpOp::kLe));
  parts.push_back(RealFormula::Cmp(-Z(0) - C(5), CmpOp::kLe));
  RealFormula f = RealFormula::And(parts);
  auto sweep = LatticeSweep(f, {10, 100, 1000});
  ASSERT_TRUE(sweep.ok());
  EXPECT_GT((*sweep)[0].ratio(), (*sweep)[1].ratio());
  EXPECT_GT((*sweep)[1].ratio(), (*sweep)[2].ratio());
  EXPECT_NEAR((*sweep)[2].ratio(), 11.0 / 2001.0, 1e-9);
}

}  // namespace
}  // namespace mudb::measure
