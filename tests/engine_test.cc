// Tests for the CQ engine: IR validation, candidate enumeration, constraint
// collection, LIMIT, and agreement with the general grounding pipeline.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/cq.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/translate/ground.h"

namespace mudb::engine {
namespace {

using logic::AtomArg;
using logic::CmpOp;
using logic::Term;
using logic::TypedVar;
using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Value;

Database TinySalesDb() {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema("P", {{"id", Sort::kBase},
                                                    {"seg", Sort::kBase},
                                                    {"rrp", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("M", {{"seg", Sort::kBase},
                                                    {"price", Sort::kNum}}))
                 .ok());
  return db;
}

ConjunctiveQuery AdvantageQuery() {
  // SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.rrp <= M.price.
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                  AtomArg::BaseVar("seg"),
                                  AtomArg::NumVar("rrp")}});
  cq.atoms.push_back(
      CqAtom{"M", {AtomArg::BaseVar("seg"), AtomArg::NumVar("price")}});
  cq.comparisons.push_back(
      CqComparison{Term::Var("rrp"), CmpOp::kLe, Term::Var("price")});
  cq.output.push_back(TypedVar{"id", Sort::kBase});
  return cq;
}

TEST(CqValidationTest, AcceptsWellFormed) {
  Database db = TinySalesDb();
  EXPECT_TRUE(AdvantageQuery().Validate(db).ok());
}

TEST(CqValidationTest, RejectsUnknownRelationAndArity) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.atoms[0].relation = "Nope";
  EXPECT_FALSE(cq.Validate(db).ok());
  cq = AdvantageQuery();
  cq.atoms[0].args.pop_back();
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqValidationTest, RejectsCompoundNumericAtomArg) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.atoms[0].args[2] =
      AtomArg::Num(Term::Var("x") + Term::Const(1));
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqValidationTest, RejectsUnboundComparisonAndOutput) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.comparisons.push_back(
      CqComparison{Term::Var("ghost"), CmpOp::kLt, Term::Const(0)});
  EXPECT_FALSE(cq.Validate(db).ok());
  cq = AdvantageQuery();
  cq.output.push_back(TypedVar{"ghost", Sort::kNum});
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqToQueryTest, RoundTripsThroughLogic) {
  Database db = TinySalesDb();
  auto q = AdvantageQuery().ToQuery(db);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->output.size(), 1u);
  EXPECT_EQ(q->output[0].name, "id");
  EXPECT_TRUE(q->formula.IsConjunctive());
}

TEST(EvalTest, CompleteWitnessIsCertain) {
  Database db = TinySalesDb();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_EQ(c.output[0], Value::BaseConst("p1"));
  EXPECT_TRUE(c.certain);
  EXPECT_EQ(c.constraint.kind(), constraints::RealFormula::Kind::kTrue);
}

TEST(EvalTest, FailingCompleteWitnessProducesNoCandidate) {
  Database db = TinySalesDb();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              Value::NumConst(30)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->candidates.empty());
}

TEST(EvalTest, NullWitnessCollectsConstraint) {
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_FALSE(c.certain);
  EXPECT_EQ(c.witnesses, 1u);
  // Constraint should be z <= 20, i.e. ν = 1/2.
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(c.constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.5, 1e-9);
}

TEST(EvalTest, BaseNullsJoinOnlyWithThemselves) {
  Database db = TinySalesDb();
  Value seg_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), seg_null,
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  // ⊥ != "s1" under the naive semantics: no candidates.
  auto r1 = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->candidates.empty());
  // A market row with the *same* null joins.
  ASSERT_TRUE(db.Insert("M", {seg_null, Value::NumConst(30)}).ok());
  auto r2 = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->candidates.size(), 1u);
  EXPECT_TRUE(r2->candidates[0].certain);
}

TEST(EvalTest, NullOutputValueSurvivesRoundTrip) {
  // Output a base null: it should come back as the original ⊥, not as the
  // internal fresh-constant encoding.
  Database db = TinySalesDb();
  Value id_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {id_null, Value::BaseConst("s1"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].output[0], id_null);
}

TEST(EvalTest, MultipleWitnessesDisjoin) {
  // Two market rows for the same segment: candidate constraint is the OR of
  // the per-witness constraints: z <= 10 || z <= 30 ⟺ z <= 30: ν = 1/2.
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(10)}).ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(30)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].witnesses, 2u);
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(result->candidates[0].constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.5, 1e-9);
}

TEST(EvalTest, LimitKeepsFirstDistinctOutputs) {
  Database db = TinySalesDb();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s1"), Value::NumConst(5)})
                    .ok());
  }
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(10)}).ok());
  ConjunctiveQuery cq = AdvantageQuery();
  cq.limit = 3;
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 3u);
}

TEST(EvalTest, MeasureZeroEqualityPruned) {
  // Join on a numeric column via a shared variable: P2(x) ⋈ Q2(x) with a
  // null on one side forces z = c: pruned by default.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("P2", {{"x", Sort::kNum}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("Q2", {{"x", Sort::kNum}}))
                  .ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P2", {top}).ok());
  ASSERT_TRUE(db.Insert("Q2", {Value::NumConst(5)}).ok());
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P2", {AtomArg::NumVar("x")}});
  cq.atoms.push_back(CqAtom{"Q2", {AtomArg::NumVar("x")}});
  cq.output.push_back(TypedVar{"x", Sort::kNum});
  auto pruned = EvaluateCq(db, cq);
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned->candidates.empty());

  EvalOptions keep;
  keep.prune_measure_zero = false;
  auto kept = EvaluateCq(db, cq, keep);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->candidates.size(), 1u);
  // The kept constraint z = 5 has measure zero.
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(kept->candidates[0].constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.0, 1e-9);
}

TEST(EvalTest, IdenticalNullJoinsWithItself) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("P2", {{"x", Sort::kNum}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("Q2", {{"x", Sort::kNum}}))
                  .ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P2", {top}).ok());
  ASSERT_TRUE(db.Insert("Q2", {top}).ok());
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P2", {AtomArg::NumVar("x")}});
  cq.atoms.push_back(CqAtom{"Q2", {AtomArg::NumVar("x")}});
  cq.output.push_back(TypedVar{"x", Sort::kNum});
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);
  EXPECT_EQ(result->candidates[0].output[0], top);
}

TEST(EvalTest, BaseEqualitiesAreAbsorbedBeforePlanning) {
  // Each atom has its own column variables, as the SQL front-end emits
  // them, so every join and filter arrives as a CqBaseEquality.
  Database db = TinySalesDb();
  Value seg_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p2"), Value::BaseConst("s2"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("P", {Value::BaseConst("p3"), seg_null, Value::NumConst(10)})
          .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  ASSERT_TRUE(db.Insert("M", {seg_null, Value::NumConst(30)}).ok());

  auto ids = [&](std::vector<CqBaseEquality> equalities) {
    ConjunctiveQuery cq;
    cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("pid"),
                                    AtomArg::BaseVar("ps"),
                                    AtomArg::NumVar("prrp")}});
    cq.atoms.push_back(
        CqAtom{"M", {AtomArg::BaseVar("ms"), AtomArg::NumVar("mprice")}});
    cq.base_equalities = std::move(equalities);
    cq.output.push_back(TypedVar{"pid", Sort::kBase});
    auto result = EvaluateCq(db, cq);
    EXPECT_TRUE(result.ok()) << result.status();
    std::set<std::string> out;
    if (!result.ok()) return out;
    for (const Candidate& c : result->candidates) {
      EXPECT_TRUE(c.certain);
      out.insert(c.output[0].base_const());
    }
    return out;
  };
  const logic::BaseArg ps = logic::BaseArg::Var("ps");
  const logic::BaseArg ms = logic::BaseArg::Var("ms");
  const logic::BaseArg s1 = logic::BaseArg::Const("s1");
  const logic::BaseArg s2 = logic::BaseArg::Const("s2");

  // p2's segment has no market row; p3's null joins only with itself.
  EXPECT_EQ(ids({{ps, ms}}), (std::set<std::string>{"p1", "p3"}));
  EXPECT_EQ(ids({{ps, s1}}), (std::set<std::string>{"p1"}));
  EXPECT_TRUE(ids({{ps, s1}, {ps, s2}}).empty());
  EXPECT_TRUE(ids({{s1, s2}}).empty());
}

// ---- Unions of conjunctive queries ----------------------------------------

TEST(UnionTest, MergesBranchesAndOrsConstraints) {
  // Two branches over the same relation: id selected when its rrp is below
  // 10 (branch 1) or above 20 (branch 2); for a null rrp the constraint is
  // the OR: z < 10 || z > 20, ν = 1.
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  auto branch = [](logic::CmpOp op, double bound) {
    ConjunctiveQuery cq;
    cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                    AtomArg::BaseVar("seg"),
                                    AtomArg::NumVar("rrp")}});
    cq.comparisons.push_back(
        CqComparison{Term::Var("rrp"), op, Term::Const(bound)});
    cq.output.push_back(TypedVar{"id", Sort::kBase});
    return cq;
  };
  UnionQuery uq;
  uq.branches.push_back(branch(logic::CmpOp::kLt, 10));
  uq.branches.push_back(branch(logic::CmpOp::kGt, 20));
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_EQ(c.witnesses, 2u);
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(c.constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 1.0, 1e-9);  // z<10 || z>20 asymptotically certain
}

TEST(UnionTest, CertainInOneBranchWins) {
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ConjunctiveQuery uncertain;
  uncertain.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                         AtomArg::BaseVar("seg"),
                                         AtomArg::NumVar("rrp")}});
  uncertain.comparisons.push_back(
      CqComparison{Term::Var("rrp"), logic::CmpOp::kLt, Term::Const(0)});
  uncertain.output.push_back(TypedVar{"id", Sort::kBase});
  ConjunctiveQuery certain = uncertain;
  certain.comparisons.clear();  // bare projection: always true
  UnionQuery uq;
  uq.branches.push_back(uncertain);
  uq.branches.push_back(certain);
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);
}

TEST(UnionTest, LimitAppliesToMergedResult) {
  Database db = TinySalesDb();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s1"), Value::NumConst(i)})
                    .ok());
  }
  ConjunctiveQuery all;
  all.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                   AtomArg::BaseVar("seg"),
                                   AtomArg::NumVar("rrp")}});
  all.output.push_back(TypedVar{"id", Sort::kBase});
  UnionQuery uq;
  uq.branches.push_back(all);
  uq.branches.push_back(all);
  uq.limit = 4;
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 4u);
}

TEST(UnionTest, ValidationCatchesMismatches) {
  Database db = TinySalesDb();
  UnionQuery empty;
  EXPECT_FALSE(EvaluateUnion(db, empty).ok());
}

// Differential: for candidates produced by the CQ engine, ν of the engine's
// constraint equals ν of the general Prop. 5.3 grounding.
TEST(EvalVsGroundTest, MeasuresAgree) {
  Database db = TinySalesDb();
  util::Rng rng(17);
  // Keep the total null count <= 8 so the order-exact engine stays usable on
  // the general-grounding side.
  for (int i = 0; i < 6; ++i) {
    Value rrp = rng.Bernoulli(0.5)
                    ? db.MakeNumNull()
                    : Value::NumConst(rng.UniformInt(5, 25));
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s" + std::to_string(i % 3)),
                                rrp})
                    .ok());
  }
  for (int s = 0; s < 3; ++s) {
    Value price = s == 0 ? db.MakeNumNull()
                         : Value::NumConst(rng.UniformInt(5, 25));
    ASSERT_TRUE(
        db.Insert("M", {Value::BaseConst("s" + std::to_string(s)), price})
            .ok());
  }
  ConjunctiveQuery cq = AdvantageQuery();
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  auto q = cq.ToQuery(db);
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(result->candidates.empty());
  for (const Candidate& c : result->candidates) {
    measure::MeasureOptions opts;
    auto mu_engine = measure::ComputeNu(c.constraint, opts);
    ASSERT_TRUE(mu_engine.ok());
    auto mu_ground = measure::ComputeMeasure(*q, db, c.output, opts);
    ASSERT_TRUE(mu_ground.ok()) << mu_ground.status();
    EXPECT_NEAR(mu_engine->value, mu_ground->value, 1e-9)
        << "candidate " << c.output[0].ToString();
  }
}

}  // namespace
}  // namespace mudb::engine
