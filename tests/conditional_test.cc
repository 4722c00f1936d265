// Tests for the §10 conditional-measure extension (range-constrained nulls).

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/measure/conditional.h"
#include "src/measure/measure.h"
#include "src/measure/nu_exact.h"
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
  opts.num_samples = 200000;
  return opts;
}

TEST(ConditionalTest, EmptyRangesMatchUnconditional) {
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  util::Rng rng(1);
  auto cond = ConditionalAfpras(f, {}, ManySamples(), rng);
  ASSERT_TRUE(cond.ok());
  EXPECT_NEAR(cond->estimate, 0.5, 0.01);
}

TEST(ConditionalTest, RejectsEmptyInterval) {
  // An empty interval, and any NaN or infinite bound: a NaN passes the
  // lo > hi test, a half-line never reads its bound, and an infinite side
  // of Between would sample Uniform(lo, ∞). An infinite side is written by
  // leaving the bound unset.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  RealFormula f = RealFormula::Cmp(Z(0) - C(1), CmpOp::kLt);
  for (const VarRange& bad :
       {VarRange::Between(2, 1), VarRange::Between(nan, 2),
        VarRange::Between(0, nan), VarRange::AtLeast(nan),
        VarRange::AtMost(nan), VarRange::Between(0, inf),
        VarRange::Between(-inf, 2)}) {
    util::Rng rng(1);
    auto cond = ConditionalAfpras(f, {bad}, ManySamples(), rng);
    ASSERT_FALSE(cond.ok()) << cond->estimate;
    EXPECT_EQ(cond.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(cond.status().message().find("z0"), std::string::npos)
        << cond.status();
  }
}

TEST(ConditionalTest, RejectsBadEpsilon) {
  // NaN fails like every other ε outside (0, 1], with a Status, before
  // AfprasSampleCount's invariant check could abort.
  RealFormula f = RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt);
  for (double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    AfprasOptions opts;
    opts.epsilon = bad;
    util::Rng rng(1);
    auto cond = ConditionalAfpras(f, {VarRange::AtLeast(0)}, opts, rng);
    EXPECT_FALSE(cond.ok()) << bad;
    EXPECT_EQ(cond.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ConditionalTest, FullyBoundedBoxIsPointwiseProbability) {
  util::Rng rng(2);
  // z0 <= 0.3 on [0, 1]: exactly 0.3.
  auto a = ConditionalAfpras(RealFormula::Cmp(Z(0) - C(0.3), CmpOp::kLe),
                             {VarRange::Between(0, 1)}, ManySamples(), rng);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->estimate, 0.3, 0.01);
  // z0 + z1 <= 1 on [0,1]^2: the lower triangle, 1/2.
  auto b = ConditionalAfpras(
      RealFormula::Cmp(Z(0) + Z(1) - C(1), CmpOp::kLe),
      {VarRange::Between(0, 1), VarRange::Between(0, 1)}, ManySamples(), rng);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->estimate, 0.5, 0.01);
}

TEST(ConditionalTest, NonlinearBoundedRegion) {
  // Area of {x·y <= 1/4} on the unit square is 1/4 + (1/4)·ln 4.
  util::Rng rng(3);
  auto r = ConditionalAfpras(
      RealFormula::Cmp(Z(0) * Z(1) - C(0.25), CmpOp::kLe),
      {VarRange::Between(0, 1), VarRange::Between(0, 1)}, ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.25 + 0.25 * std::log(4.0), 0.01);
}

TEST(ConditionalTest, HalfLinePriorAbsorbsFiniteThresholds) {
  // Under z >= 0, the constraint z >= 5 holds asymptotically always:
  // lim |[5, r]| / |[0, r]| = 1.
  util::Rng rng(4);
  auto r = ConditionalAfpras(RealFormula::Cmp(C(5) - Z(0), CmpOp::kLe),
                             {VarRange::AtLeast(0)}, ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 1.0, 1e-9);
  // While z <= 5 has conditional measure 0.
  auto r2 = ConditionalAfpras(RealFormula::Cmp(Z(0) - C(5), CmpOp::kLe),
                              {VarRange::AtLeast(0)}, ManySamples(), rng);
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r2->estimate, 0.0, 1e-9);
}

TEST(ConditionalTest, UpperHalfLineFlipsSigns) {
  util::Rng rng(5);
  // Under z <= 0, z <= -1 is asymptotically certain.
  auto r = ConditionalAfpras(RealFormula::Cmp(Z(0) + C(1), CmpOp::kLe),
                             {VarRange::AtMost(0)}, ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 1.0, 1e-9);
}

TEST(ConditionalTest, MixedBoundedAndDirectional) {
  util::Rng rng(6);
  // z0 ~ [0,1] bounded, z1 free: φ = (z0 <= 0.25) && (z1 > 0): 0.25 · 0.5.
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(0) - C(0.25), CmpOp::kLe));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  auto r = ConditionalAfpras(RealFormula::And(parts),
                             {VarRange::Between(0, 1), VarRange::Free()},
                             ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.125, 0.01);
}

TEST(ConditionalTest, BoundedValueScalesAgainstDirectionalVariable) {
  util::Rng rng(7);
  // z0 ∈ [1, 2] bounded, z1 >= 0: z1 >= z0 holds asymptotically always
  // (z1 outgrows any bounded z0); z1 <= z0 never.
  auto ge = ConditionalAfpras(
      RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLe),
      {VarRange::Between(1, 2), VarRange::AtLeast(0)}, ManySamples(), rng);
  ASSERT_TRUE(ge.ok());
  EXPECT_NEAR(ge->estimate, 1.0, 1e-9);
  auto le = ConditionalAfpras(
      RealFormula::Cmp(Z(1) - Z(0), CmpOp::kLe),
      {VarRange::Between(1, 2), VarRange::AtLeast(0)}, ManySamples(), rng);
  ASSERT_TRUE(le.ok());
  EXPECT_NEAR(le->estimate, 0.0, 1e-9);
}

TEST(ConditionalTest, IntroExampleQuadrantShare) {
  // The paper's "≈0.388 of the positive quadrant": conditioning constraint
  // (1) on α, α' >= 0 gives the quadrant-relative value directly.
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(C(8) - Z(0), CmpOp::kLe));        // α >= 8
  parts.push_back(RealFormula::Cmp(Z(0) - Z(1).Scale(0.7), CmpOp::kLe));
  RealFormula f = RealFormula::And(parts);
  util::Rng rng(8);
  auto r = ConditionalAfpras(
      f, {VarRange::AtLeast(0), VarRange::AtLeast(0)}, ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  double expected = 4 * (M_PI / 2 - std::atan(10.0 / 7.0)) / (2 * M_PI);
  EXPECT_NEAR(r->estimate, expected, 0.01);  // ≈ 0.3888
}

TEST(ConditionalTest, RangesOnUnusedVariablesMarginalizeOut) {
  RealFormula f = RealFormula::Cmp(-Z(0), CmpOp::kLt);  // z0 > 0
  util::Rng rng(9);
  VarRanges ranges{VarRange::Free(), VarRange::Between(0, 1),
                   VarRange::AtLeast(3)};
  auto r = ConditionalAfpras(f, ranges, ManySamples(), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate, 0.5, 0.01);
}

TEST(ConditionalTest, EndToEndThroughGrounding) {
  // R(num) = {(⊤)}, q = ∃x R(x) && x >= 3.
  model::Database db;
  ASSERT_TRUE(db.CreateRelation(model::RelationSchema(
                   "R", {{"x", model::Sort::kNum}}))
                  .ok());
  model::Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("R", {top}).ok());
  logic::Formula f = logic::Formula::Exists(
      logic::TypedVar{"x", model::Sort::kNum},
      logic::Formula::And([] {
        std::vector<logic::Formula> v;
        v.push_back(logic::Formula::Rel("R", {logic::AtomArg::NumVar("x")}));
        v.push_back(logic::Formula::Cmp(logic::Term::Var("x"), CmpOp::kGe,
                                        logic::Term::Const(3)));
        return v;
      }()));
  auto q = logic::Query::Make(std::move(f), db);
  ASSERT_TRUE(q.ok());

  MeasureOptions opts;
  opts.epsilon = 0.01;
  opts.delta = 0.001;
  // Agnostic: 1/2.
  auto free = ComputeConditionalMeasure(*q, db, {}, {}, opts);
  ASSERT_TRUE(free.ok()) << free.status();
  EXPECT_NEAR(free->value, 0.5, 0.01);
  // ⊤ ∈ [0, 10]: P(x >= 3) = 0.7.
  NullRanges bounded{{top.null_id(), VarRange::Between(0, 10)}};
  auto b = ComputeConditionalMeasure(*q, db, {}, bounded, opts);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->value, 0.7, 0.01);
  // ⊤ >= 0: asymptotically certain.
  NullRanges nonneg{{top.null_id(), VarRange::AtLeast(0)}};
  auto h = ComputeConditionalMeasure(*q, db, {}, nonneg, opts);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->value, 1.0, 1e-9);
  // ⊤ >= NaN is no constraint at all: it fails instead of reading as free.
  NullRanges nan_bound{
      {top.null_id(),
       VarRange::AtLeast(std::numeric_limits<double>::quiet_NaN())}};
  auto n = ComputeConditionalMeasure(*q, db, {}, nan_bound, opts);
  EXPECT_EQ(n.status().code(), util::StatusCode::kInvalidArgument);
}

// Property: with all-free ranges the conditional estimator agrees with the
// exact 2-D engine on random sector formulas.
class ConditionalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConditionalPropertyTest, FreeRangesMatchExact2D) {
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
    util::Rng rng(GetParam() * 31 + iter);
    auto cond = ConditionalAfpras(f, {}, ManySamples(), rng);
    ASSERT_TRUE(cond.ok());
    EXPECT_NEAR(cond->estimate, *exact, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionalPropertyTest,
                         ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace mudb::measure
