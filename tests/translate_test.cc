// Tests for src/translate: the Prop. 5.3 grounding, differentially checked
// against naive evaluation on complete databases, plus the paper's worked
// example from the introduction.

#include <cmath>

#include <gtest/gtest.h>

#include "src/datagen/datagen.h"
#include "src/engine/naive.h"
#include "src/measure/measure.h"
#include "src/translate/ground.h"
#include "src/util/rng.h"

namespace mudb::translate {
namespace {

using constraints::RealFormula;
using logic::AtomArg;
using logic::CmpOp;
using logic::Formula;
using logic::Query;
using logic::Term;
using logic::TypedVar;
using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Tuple;
using model::Value;

TEST(GroundTest, SingleNullPositivityQuery) {
  // R(num) with one tuple (⊤). q = ∃x R(x) && x > 0  ⇒  φ = z0 > 0.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}})).ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("R", {top}).ok());
  Formula f = Formula::Exists(
      TypedVar{"x", Sort::kNum},
      Formula::And([] {
        std::vector<Formula> v;
        v.push_back(Formula::Rel("R", {AtomArg::NumVar("x")}));
        v.push_back(Formula::Cmp(Term::Var("x"), CmpOp::kGt, Term::Const(0)));
        return v;
      }()));
  auto q = Query::Make(f, db);
  ASSERT_TRUE(q.ok());
  auto ground = GroundQuery(*q, db, {});
  ASSERT_TRUE(ground.ok()) << ground.status();
  ASSERT_EQ(ground->null_order.size(), 1u);
  EXPECT_EQ(ground->null_order[0], top.null_id());
  // φ should be exactly "z0 > 0": true along +, false along −.
  EXPECT_TRUE(ground->formula.AsymptoticTruth({1.0}));
  EXPECT_FALSE(ground->formula.AsymptoticTruth({-1.0}));
  EXPECT_TRUE(ground->formula.EvaluateAt({0.5}));
  EXPECT_FALSE(ground->formula.EvaluateAt({-0.5}));
}

TEST(GroundTest, CandidateWithBaseNull) {
  // R(base) with one tuple (⊥). Candidate ⊥ is certain; candidate "other"
  // never matches.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase}}))
                  .ok());
  Value bot = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("R", {bot}).ok());
  Formula f = Formula::Rel("R", {AtomArg::BaseVar("a")});
  auto q = Query::Make(f, db);
  ASSERT_TRUE(q.ok());

  auto g1 = GroundQuery(*q, db, {bot});
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(g1->formula.kind(), RealFormula::Kind::kTrue);

  auto g2 = GroundQuery(*q, db, {Value::BaseConst("other")});
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->formula.kind(), RealFormula::Kind::kFalse);
}

TEST(GroundTest, NumericConstantCandidate) {
  // R(num) = {(5)}. q(y) = R(y). Candidate 5 certain, 6 false, ⊤ gives z = 5
  // (measure zero but satisfiable).
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}})).ok());
  ASSERT_TRUE(db.Insert("R", {Value::NumConst(5)}).ok());
  Formula f = Formula::Rel("R", {AtomArg::NumVar("y")});
  auto q = Query::Make(f, db);
  ASSERT_TRUE(q.ok());
  auto g_yes = GroundQuery(*q, db, {Value::NumConst(5)});
  ASSERT_TRUE(g_yes.ok());
  EXPECT_EQ(g_yes->formula.kind(), RealFormula::Kind::kTrue);
  auto g_no = GroundQuery(*q, db, {Value::NumConst(6)});
  ASSERT_TRUE(g_no.ok());
  EXPECT_EQ(g_no->formula.kind(), RealFormula::Kind::kFalse);
}

TEST(GroundTest, CandidateArityAndSortValidation) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}})).ok());
  ASSERT_TRUE(db.Insert("R", {Value::NumConst(1)}).ok());
  Formula f = Formula::Rel("R", {AtomArg::NumVar("y")});
  auto q = Query::Make(f, db);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(GroundQuery(*q, db, {}).ok());
  EXPECT_FALSE(GroundQuery(*q, db, {Value::BaseConst("a")}).ok());
}

TEST(GroundTest, MaxAtomsGuard) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"x", Sort::kNum}}))
                  .ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert("R", {db.MakeNumNull()}).ok());
  }
  // ∃x∃y R(x) && R(y) && x < y: quadratic expansion.
  Formula f = Formula::ExistsMany(
      {TypedVar{"x", Sort::kNum}, TypedVar{"y", Sort::kNum}},
      Formula::And([] {
        std::vector<Formula> v;
        v.push_back(Formula::Rel("R", {AtomArg::NumVar("x")}));
        v.push_back(Formula::Rel("R", {AtomArg::NumVar("y")}));
        v.push_back(Formula::Cmp(Term::Var("x"), CmpOp::kLt, Term::Var("y")));
        return v;
      }()));
  auto q = Query::Make(f, db);
  ASSERT_TRUE(q.ok());
  GroundOptions opts;
  opts.max_atoms = 100;
  auto ground = GroundQuery(*q, db, {}, opts);
  EXPECT_FALSE(ground.ok());
  EXPECT_EQ(ground.status().code(), util::StatusCode::kResourceExhausted);
}

// ---- Differential testing against naive evaluation on complete DBs --------

Database RandomCompleteDb(util::Rng& rng) {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                    {"x", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("S", {{"x", Sort::kNum},
                                                    {"y", Sort::kNum}}))
                 .ok());
  int nr = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < nr; ++i) {
    MUDB_CHECK(db.Insert("R", {Value::BaseConst(
                                   "b" + std::to_string(rng.UniformInt(0, 2))),
                               Value::NumConst(rng.UniformInt(-3, 3))})
                   .ok());
  }
  int ns = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < ns; ++i) {
    MUDB_CHECK(db.Insert("S", {Value::NumConst(rng.UniformInt(-3, 3)),
                               Value::NumConst(rng.UniformInt(-3, 3))})
                   .ok());
  }
  return db;
}

std::vector<Formula> TestFormulas() {
  std::vector<Formula> out;
  // ∃x∃y S(x,y) && x < y
  out.push_back(Formula::ExistsMany(
      {TypedVar{"x", Sort::kNum}, TypedVar{"y", Sort::kNum}},
      Formula::And([] {
        std::vector<Formula> v;
        v.push_back(Formula::Rel("S", {AtomArg::NumVar("x"),
                                       AtomArg::NumVar("y")}));
        v.push_back(Formula::Cmp(Term::Var("x"), CmpOp::kLt, Term::Var("y")));
        return v;
      }())));
  // ∀x∀y S(x,y) -> x + y > 0
  out.push_back(Formula::ForallMany(
      {TypedVar{"x", Sort::kNum}, TypedVar{"y", Sort::kNum}},
      Formula::Implies(
          Formula::Rel("S", {AtomArg::NumVar("x"), AtomArg::NumVar("y")}),
          Formula::Cmp(Term::Var("x") + Term::Var("y"), CmpOp::kGt,
                       Term::Const(0)))));
  // ∃a∃x R(a,x) && ¬∃y S(x,y)
  out.push_back(Formula::ExistsMany(
      {TypedVar{"a", Sort::kBase}, TypedVar{"x", Sort::kNum}},
      Formula::And([] {
        std::vector<Formula> v;
        v.push_back(Formula::Rel("R", {AtomArg::BaseVar("a"),
                                       AtomArg::NumVar("x")}));
        v.push_back(Formula::Not(Formula::Exists(
            TypedVar{"y", Sort::kNum},
            Formula::Rel("S", {AtomArg::NumVar("x"), AtomArg::NumVar("y")}))));
        return v;
      }())));
  // ∃x S(x, x·x)   (multiplication)
  out.push_back(Formula::Exists(
      TypedVar{"x", Sort::kNum},
      Formula::Rel("S", {AtomArg::NumVar("x"),
                         AtomArg::Num(Term::Var("x") * Term::Var("x"))})));
  // ∀a (∃x R(a,x)) -> ∃x R(a,x) && x >= 0    (trivially restricted)
  out.push_back(Formula::Forall(
      TypedVar{"a", Sort::kBase},
      Formula::Implies(
          Formula::Exists(TypedVar{"x", Sort::kNum},
                          Formula::Rel("R", {AtomArg::BaseVar("a"),
                                             AtomArg::NumVar("x")})),
          Formula::Exists(
              TypedVar{"x", Sort::kNum},
              Formula::And([] {
                std::vector<Formula> v;
                v.push_back(Formula::Rel("R", {AtomArg::BaseVar("a"),
                                               AtomArg::NumVar("x")}));
                v.push_back(Formula::Cmp(Term::Var("x"), CmpOp::kGe,
                                         Term::Const(0)));
                return v;
              }())))));
  return out;
}

class GroundVsNaiveTest : public ::testing::TestWithParam<int> {};

TEST_P(GroundVsNaiveTest, BooleanQueriesOnCompleteDatabases) {
  util::Rng rng(GetParam());
  std::vector<Formula> formulas = TestFormulas();
  for (int iter = 0; iter < 20; ++iter) {
    Database db = RandomCompleteDb(rng);
    for (const Formula& f : formulas) {
      auto q = Query::Make(f, db);
      ASSERT_TRUE(q.ok()) << q.status();
      ASSERT_TRUE(q->IsBoolean());
      auto ground = GroundQuery(*q, db, {});
      ASSERT_TRUE(ground.ok()) << ground.status();
      // Complete database: the grounded formula must be a constant.
      ASSERT_TRUE(ground->formula.is_constant());
      bool mu_one = ground->formula.kind() == RealFormula::Kind::kTrue;
      auto naive = engine::NaiveHolds(*q, db, {});
      ASSERT_TRUE(naive.ok()) << naive.status();
      EXPECT_EQ(mu_one, *naive) << "iter=" << iter << " q=" << q->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundVsNaiveTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- The paper's introduction example --------------------------------------

Formula IntroQueryFormula() {
  // ∀ i, r, d, i', p: (P(i,s,r,d) && ¬E(i,s) && C(i',s,p))
  //                   -> (r·d <= p && r >= 0 && d >= 0 && p >= 0)
  Formula antecedent = Formula::And([] {
    std::vector<Formula> v;
    v.push_back(Formula::Rel(
        "Products", {AtomArg::BaseVar("i"), AtomArg::BaseVar("s"),
                     AtomArg::NumVar("r"), AtomArg::NumVar("d")}));
    v.push_back(Formula::Not(
        Formula::Rel("Excluded", {AtomArg::BaseVar("i"),
                                  AtomArg::BaseVar("s")})));
    v.push_back(Formula::Rel("Competition", {AtomArg::BaseVar("ip"),
                                             AtomArg::BaseVar("s"),
                                             AtomArg::NumVar("p")}));
    return v;
  }());
  Formula consequent = Formula::And([] {
    std::vector<Formula> v;
    v.push_back(Formula::Cmp(Term::Var("r") * Term::Var("d"), CmpOp::kLe,
                             Term::Var("p")));
    v.push_back(Formula::Cmp(Term::Var("r"), CmpOp::kGe, Term::Const(0)));
    v.push_back(Formula::Cmp(Term::Var("d"), CmpOp::kGe, Term::Const(0)));
    v.push_back(Formula::Cmp(Term::Var("p"), CmpOp::kGe, Term::Const(0)));
    return v;
  }());
  return Formula::ForallMany(
      {TypedVar{"i", Sort::kBase}, TypedVar{"r", Sort::kNum},
       TypedVar{"d", Sort::kNum}, TypedVar{"ip", Sort::kBase},
       TypedVar{"p", Sort::kNum}},
      Formula::Implies(std::move(antecedent), std::move(consequent)));
}

TEST(IntroExampleTest, GroundedMeasureMatchesClosedForm) {
  auto campaign = datagen::MakeCampaignDatabase();
  ASSERT_TRUE(campaign.ok());
  const Database& db = campaign->db;
  auto q = Query::MakeWithOutput(IntroQueryFormula(),
                                 {TypedVar{"s", Sort::kBase}}, db);
  ASSERT_TRUE(q.ok()) << q.status();
  auto ground = GroundQuery(*q, db, {Value::BaseConst("s")});
  ASSERT_TRUE(ground.ok()) << ground.status();

  measure::MeasureOptions opts;
  auto result = measure::ComputeNu(ground->formula, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  // The literal reading of the query (r·d <= p) constrains the two nulls to
  // {α >= 8, α' >= 0, 0.7·α' <= α}: exactly atan(10/7)/2π of the plane.
  double expected = std::atan(10.0 / 7.0) / (2 * M_PI);
  EXPECT_TRUE(result->is_exact);
  EXPECT_NEAR(result->value, expected, 1e-9);
}

TEST(IntroExampleTest, PaperConstraintOneMatchesPrintedValue) {
  // Constraint (1) exactly as printed in the paper:
  // (α' >= 0) && (α >= 8) && (0.7·α' >= α), with ν ≈ 0.097 and 0.388 of the
  // positive quadrant (the paper's comparison is flipped relative to the
  // query; see bench/e2e/EXPERIMENTS.md).
  using poly::Polynomial;
  Polynomial alpha = Polynomial::Variable(0);
  Polynomial alpha_prime = Polynomial::Variable(1);
  RealFormula f = RealFormula::And([&] {
    std::vector<RealFormula> v;
    v.push_back(RealFormula::Cmp(-alpha_prime, constraints::CmpOp::kLe));
    v.push_back(RealFormula::Cmp(Polynomial::Constant(8) - alpha,
                                 constraints::CmpOp::kLe));
    v.push_back(RealFormula::Cmp(
        alpha - alpha_prime.Scale(0.7), constraints::CmpOp::kLe));
    return v;
  }());
  measure::MeasureOptions opts;
  auto result = measure::ComputeNu(f, opts);
  ASSERT_TRUE(result.ok());
  double expected = (M_PI / 2 - std::atan(10.0 / 7.0)) / (2 * M_PI);
  EXPECT_NEAR(result->value, expected, 1e-9);
  EXPECT_NEAR(result->value, 0.097, 5e-4);        // the paper's ≈0.097
  EXPECT_NEAR(result->value * 4, 0.388, 2e-3);    // ≈0.388 of the quadrant
}

}  // namespace
}  // namespace mudb::translate
