// Tests for the measure-dispatch layer (ComputeNu / ComputeMeasure): engine
// selection, exactness reporting, option validation (the grounding cap
// included), and the zero-one law of [27] recovered for queries without
// numeric comparisons.

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "src/engine/naive.h"
#include "src/measure/measure.h"
#include "src/measure/nu_exact.h"
#include "src/util/rng.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using logic::AtomArg;
using logic::Formula;
using logic::TypedVar;
using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Value;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }

TEST(DispatchTest, ConstantsAreExactUnderEveryMethod) {
  for (Method m : {Method::kAuto, Method::kExactOrder, Method::kExact2D,
                   Method::kAfpras, Method::kFpras}) {
    MeasureOptions opts;
    opts.method = m;
    auto one = ComputeNu(RealFormula::True(), opts);
    ASSERT_TRUE(one.ok());
    EXPECT_TRUE(one->is_exact);
    EXPECT_DOUBLE_EQ(one->value, 1.0);
    auto zero = ComputeNu(RealFormula::False(), opts);
    ASSERT_TRUE(zero.ok());
    EXPECT_DOUBLE_EQ(zero->value, 0.0);
  }
}

TEST(DispatchTest, DegenerateOptionsRejectedAtTheBoundary) {
  // ε and δ are validated once at the API boundary, for every method —
  // δ = 0 or δ = 2 must not flow into AfprasSampleCount (the ranking
  // ladder splits δ, so a degenerate budget is a correctness bug there).
  RealFormula f = RealFormula::Cmp(Z(0), CmpOp::kLt);
  for (Method m : {Method::kAuto, Method::kExact2D, Method::kAfpras,
                   Method::kFpras}) {
    for (double bad_delta :
         {0.0, 1.0, 2.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
      MeasureOptions opts;
      opts.method = m;
      opts.delta = bad_delta;
      auto r = ComputeNu(f, opts);
      EXPECT_FALSE(r.ok()) << MethodToString(m) << " delta " << bad_delta;
      EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    }
    for (double bad_eps :
         {0.0, 1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
      MeasureOptions opts;
      opts.method = m;
      opts.epsilon = bad_eps;
      auto r = ComputeNu(f, opts);
      EXPECT_FALSE(r.ok()) << MethodToString(m) << " eps " << bad_eps;
      EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
  EXPECT_TRUE(ValidateMeasureOptions(MeasureOptions{}).ok());
}

TEST(DispatchTest, ResultsCarryConfidenceIntervals) {
  // Exact paths report point intervals; sampled paths bracket the value.
  MeasureOptions exact;
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  auto e = ComputeNu(RealFormula::And(parts), exact);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->is_exact);
  EXPECT_EQ(e->ci_lo, e->value);
  EXPECT_EQ(e->ci_hi, e->value);
  EXPECT_EQ(e->tier, 0);

  MeasureOptions afpras;
  afpras.method = Method::kAfpras;
  afpras.epsilon = 0.1;
  auto a = ComputeNu(RealFormula::Cmp(Z(0) + Z(1) + Z(2), CmpOp::kLt),
                     afpras);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->ci_lo, std::max(0.0, a->value - 0.1));
  EXPECT_DOUBLE_EQ(a->ci_hi, std::min(1.0, a->value + 0.1));
}

TEST(DispatchTest, AutoPrefersExact2DForTwoVariables) {
  MeasureOptions opts;
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  auto r = ComputeNu(RealFormula::And(parts), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method_used, Method::kExact2D);
  EXPECT_TRUE(r->is_exact);
  EXPECT_NEAR(r->value, 0.25, 1e-9);
}

TEST(DispatchTest, AutoPrefersOrderEngineForOrderFormulas) {
  MeasureOptions opts;
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(Z(0) - Z(1), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(Z(1) - Z(2), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(Z(2) - Z(3), CmpOp::kLt));
  auto r = ComputeNu(RealFormula::And(parts), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method_used, Method::kExactOrder);
  ASSERT_TRUE(r->exact_rational.has_value());
  EXPECT_EQ(*r->exact_rational, util::Rational(1, 24));
}

TEST(DispatchTest, AutoFallsBackToAfprasForWideNonlinearFormulas) {
  MeasureOptions opts;
  opts.epsilon = 0.05;
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(Z(i) * Z(i + 1), CmpOp::kLt));
  }
  auto r = ComputeNu(RealFormula::And(parts), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method_used, Method::kAfpras);
  EXPECT_FALSE(r->is_exact);
  EXPECT_GT(r->samples, 0);
}

TEST(DispatchTest, ForcedMethodRejectsOutOfScopeFormulas) {
  // 4-variable nonlinear formula cannot run on the 2-D or order engines.
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(Z(i) * Z(i + 1), CmpOp::kLt));
  }
  RealFormula f = RealFormula::And(parts);
  MeasureOptions opts;
  opts.method = Method::kExact2D;
  EXPECT_FALSE(ComputeNu(f, opts).ok());
  opts.method = Method::kExactOrder;
  EXPECT_FALSE(ComputeNu(f, opts).ok());
  opts.method = Method::kFpras;  // nonlinear
  EXPECT_FALSE(ComputeNu(f, opts).ok());
}

TEST(DispatchTest, AutoFallsBackToAfprasBeyondExactOrderBudget) {
  // A 4-variable order chain with the order engine budget pulled below it:
  // kAuto must degrade to the AFPRAS instead of erroring, and the estimate
  // must agree with the exact rational value the order engine would give.
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(Z(i) - Z(i + 1), CmpOp::kLt));
  }
  RealFormula chain = RealFormula::And(std::move(parts));
  auto exact = NuExactOrder(chain, 8);
  ASSERT_TRUE(exact.ok());

  MeasureOptions opts;  // kAuto
  opts.exact_order_max_vars = 3;  // below the 4 variables used
  opts.epsilon = 0.02;
  auto r = ComputeNu(chain, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->method_used, Method::kAfpras);
  EXPECT_FALSE(r->is_exact);
  EXPECT_NEAR(r->value, exact->ToDouble(), 0.05);
}

TEST(DispatchTest, AutoFallbackHonorsCallerPool) {
  // kAuto's AFPRAS route passes the caller's options through whole — in
  // particular a supplied long-lived pool. The determinism contract then
  // demands a bit-identical estimate with and without the pool.
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(Z(i) - Z(i + 1), CmpOp::kLt));
  }
  RealFormula chain = RealFormula::And(std::move(parts));
  MeasureOptions plain;
  plain.exact_order_max_vars = 3;
  plain.epsilon = 0.02;
  auto without = ComputeNu(chain, plain);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->method_used, Method::kAfpras);

  util::ThreadPool pool(2);
  MeasureOptions opts = plain;
  opts.pool = &pool;
  auto with_pool = ComputeNu(chain, opts);
  ASSERT_TRUE(with_pool.ok());
  EXPECT_EQ(with_pool->method_used, Method::kAfpras);
  EXPECT_EQ(with_pool->value, without->value);
}

// ---- The zero-one law of [27], recovered ------------------------------------
//
// For queries whose arithmetic never touches a null (in particular queries
// with no numeric comparisons at all), μ ∈ {0, 1}, and μ = 1 iff naive
// evaluation returns the tuple — the base-only framework the paper
// generalizes (§2 and the Remark in §4).

TEST(ZeroOneLawTest, BaseOnlyQueriesAreZeroOne) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                     {"b", Sort::kBase}}))
                  .ok());
  Value bot1 = db.MakeBaseNull();
  Value bot2 = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("R", {bot1, bot2}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::BaseConst("c"), bot1}).ok());

  // q(x) = ∃y R(x, y).
  Formula f = Formula::Exists(
      TypedVar{"y", Sort::kBase},
      Formula::Rel("R", {AtomArg::BaseVar("x"), AtomArg::BaseVar("y")}));
  auto q = logic::Query::MakeWithOutput(f, {TypedVar{"x", Sort::kBase}}, db);
  ASSERT_TRUE(q.ok());

  MeasureOptions opts;
  // Candidates returned by naive evaluation (nulls as fresh constants) get
  // μ = 1; others 0.
  for (const auto& [cand, expected] :
       std::vector<std::pair<Value, double>>{{bot1, 1.0},
                                             {Value::BaseConst("c"), 1.0},
                                             {bot2, 0.0},
                                             {Value::BaseConst("z"), 0.0}}) {
    auto mu = ComputeMeasure(*q, db, {cand}, opts);
    ASSERT_TRUE(mu.ok()) << mu.status();
    EXPECT_TRUE(mu->is_exact);
    EXPECT_DOUBLE_EQ(mu->value, expected) << cand.ToString();
  }
}

TEST(ZeroOneLawTest, BaseNullEqualsNoQueryConstant) {
  // q(a) = ∃n R(a, n) ∧ a = '@null_0' over R = {(⊥0, 1), (b, 2)}: the
  // constant is spelled like a fresh name for ⊥0, but a null equals only
  // itself (Prop. 5.2), so ⊥0 is not an answer.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                     {"n", Sort::kNum}}))
                  .ok());
  Value bot0 = db.MakeBaseNull();
  ASSERT_EQ(bot0.null_id(), 0u);
  ASSERT_TRUE(db.Insert("R", {bot0, Value::NumConst(1)}).ok());
  ASSERT_TRUE(
      db.Insert("R", {Value::BaseConst("b"), Value::NumConst(2)}).ok());
  std::vector<Formula> parts;
  parts.push_back(
      Formula::Rel("R", {AtomArg::BaseVar("a"), AtomArg::NumVar("n")}));
  parts.push_back(Formula::BaseEq(logic::BaseArg::Var("a"),
                                  logic::BaseArg::Const("@null_0")));
  Formula f = Formula::Exists(TypedVar{"n", Sort::kNum},
                              Formula::And(std::move(parts)));
  auto q = logic::Query::MakeWithOutput(f, {TypedVar{"a", Sort::kBase}}, db);
  ASSERT_TRUE(q.ok()) << q.status();
  MeasureOptions opts;
  auto mu = ComputeMeasure(*q, db, {bot0}, opts);
  ASSERT_TRUE(mu.ok()) << mu.status();
  EXPECT_TRUE(mu->is_exact);
  EXPECT_DOUBLE_EQ(mu->value, 0.0);
}

TEST(ZeroOneLawTest, MatchesNaiveEvaluationUnderBijectiveValuation) {
  // Randomized: base-only databases with nulls; μ of each candidate equals
  // membership in the naive evaluation of the valuated (complete) database.
  util::Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    Database db;
    ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                       {"b", Sort::kBase}}))
                    .ok());
    ASSERT_TRUE(db.CreateRelation(RelationSchema("S", {{"b", Sort::kBase}}))
                    .ok());
    std::vector<Value> pool{Value::BaseConst("u"), Value::BaseConst("v"),
                            db.MakeBaseNull(), db.MakeBaseNull()};
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db.Insert("R", {pool[rng.UniformInt(0, 3)],
                                  pool[rng.UniformInt(0, 3)]})
                      .ok());
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(db.Insert("S", {pool[rng.UniformInt(0, 3)]}).ok());
    }
    // q(x) = ∃y R(x, y) && ¬S(y)   (an FO query, not a CQ).
    Formula f = Formula::Exists(
        TypedVar{"y", Sort::kBase},
        Formula::And([] {
          std::vector<Formula> v;
          v.push_back(Formula::Rel("R", {AtomArg::BaseVar("x"),
                                         AtomArg::BaseVar("y")}));
          v.push_back(Formula::Not(
              Formula::Rel("S", {AtomArg::BaseVar("y")})));
          return v;
        }()));
    auto q = logic::Query::MakeWithOutput(f, {TypedVar{"x", Sort::kBase}},
                                          db);
    ASSERT_TRUE(q.ok());

    // Extend the valuation over pool nulls that never made it into the
    // database, mirroring what the grounding does for candidates.
    std::vector<model::NullId> extra;
    for (const Value& v : pool) {
      if (v.is_null()) extra.push_back(v.null_id());
    }
    model::Valuation vbase =
        model::MakeBijectiveBaseValuation(db, "@null_", extra);
    Database complete = vbase.Apply(db);
    MeasureOptions opts;
    for (const Value& cand : pool) {
      auto mu = ComputeMeasure(*q, db, {cand}, opts);
      ASSERT_TRUE(mu.ok());
      auto naive =
          engine::NaiveHolds(*q, complete, {vbase.Apply(cand)});
      ASSERT_TRUE(naive.ok()) << naive.status();
      EXPECT_DOUBLE_EQ(mu->value, *naive ? 1.0 : 0.0)
          << "iter " << iter << " cand " << cand.ToString();
    }
  }
}

TEST(DispatchTest, NumericNullCandidateValue) {
  // Candidates may carry numeric nulls (the permissive semantics of [28]):
  // q(y) = R(y) with R = {(⊤)} and candidate ⊤ itself is certain.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}})).ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("R", {top}).ok());
  Formula f = Formula::Rel("R", {AtomArg::NumVar("y")});
  auto q = logic::Query::Make(f, db);
  ASSERT_TRUE(q.ok());
  MeasureOptions opts;
  auto mu = ComputeMeasure(*q, db, {top}, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_DOUBLE_EQ(mu->value, 1.0);
  // A *different* null (not in the database) only matches on a measure-zero
  // set.
  auto other = ComputeMeasure(*q, db, {Value::NumNull(999)}, opts);
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ(other->value, 0.0);
}

TEST(DispatchTest, GroundAtomCapBoundsComputeMeasure) {
  // R(num) with one numeric null; q = ∃x R(x) ∧ x > 0  ⇒  μ = ν(z0 > 0).
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}})).ok());
  ASSERT_TRUE(db.Insert("R", {db.MakeNumNull()}).ok());
  Formula f = Formula::Exists(TypedVar{"x", Sort::kNum}, Formula::And([] {
                                std::vector<Formula> v;
                                v.push_back(Formula::Rel(
                                    "R", {AtomArg::NumVar("x")}));
                                v.push_back(Formula::Cmp(
                                    logic::Term::Var("x"), logic::CmpOp::kGt,
                                    logic::Term::Const(0)));
                                return v;
                              }()));
  auto q = logic::Query::Make(std::move(f), db);
  ASSERT_TRUE(q.ok());

  MeasureOptions opts;  // kAuto: one variable ⇒ exact 2-D engine
  auto mu = ComputeMeasure(*q, db, {}, opts);
  ASSERT_TRUE(mu.ok()) << mu.status();
  EXPECT_TRUE(mu->is_exact);
  EXPECT_NEAR(mu->value, 0.5, 1e-9);

  // max_ground_atoms bounds what one call may cost before sampling: a
  // budget of zero atoms fails with ResourceExhausted.
  opts.max_ground_atoms = 0;
  auto capped = ComputeMeasure(*q, db, {}, opts);
  EXPECT_EQ(capped.status().code(), util::StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace mudb::measure
