// Tests for the CQ engine: IR validation, candidate enumeration, constraint
// collection, LIMIT, and agreement with the general grounding pipeline.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/cq.h"
#include "src/engine/eval.h"
#include "src/engine/naive.h"
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

  // A null equals no query constant either, not even one spelled like a
  // fresh name for it: SELECT R.a FROM R WHERE R.a = '@null_0' over
  // R = {(⊥0, 1), (b, 2)} has no answer.
  Database rdb;
  ASSERT_TRUE(rdb.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                      {"n", Sort::kNum}}))
                  .ok());
  Value bot0 = rdb.MakeBaseNull();
  ASSERT_EQ(bot0.null_id(), 0u);
  ASSERT_TRUE(rdb.Insert("R", {bot0, Value::NumConst(1)}).ok());
  ASSERT_TRUE(
      rdb.Insert("R", {Value::BaseConst("b"), Value::NumConst(2)}).ok());
  ConjunctiveQuery named;
  named.atoms.push_back(
      CqAtom{"R", {AtomArg::BaseVar("a"), AtomArg::NumVar("n")}});
  named.base_equalities.push_back(
      {logic::BaseArg::Var("a"), logic::BaseArg::Const("@null_0")});
  named.output.push_back(TypedVar{"a", Sort::kBase});
  auto r3 = EvaluateCq(rdb, named);
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_TRUE(r3->candidates.empty());
}

TEST(EvalTest, NullOutputValueSurvivesRoundTrip) {
  // Output a base null: it comes back as the database's own ⊥.
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
  // null on one side forces z = c, a measure-zero witness: pruned.
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

// ---- Differential check against naive evaluation ---------------------------
//
// Random 2–3-atom CQs with base equalities and comparisons over random
// databases that hold base and numeric nulls. A valuation v sends every
// numeric null to a random real and every base null to a fresh constant
// (MakeBijectiveBaseValuation, under a prefix that no query constant starts
// with). Then a candidate's formula holds at v exactly when v(a) is a naive
// answer over v(D), and every naive answer is such a v(a). The query
// constants include "@null_0", the spelling of a fresh name for ⊥0, which
// must still match nothing.

constexpr int kDifferentialTrials = 400;
constexpr int kValuationsPerTrial = 2;

// R(a, x), S(a, b), T(b, y): each base column can join each other one.
Database RandomNullDb(util::Rng& rng) {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase},
                                                    {"x", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("S", {{"a", Sort::kBase},
                                                    {"b", Sort::kBase}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("T", {{"b", Sort::kBase},
                                                    {"y", Sort::kNum}}))
                 .ok());
  const std::vector<Value> base{Value::BaseConst("u"), Value::BaseConst("v"),
                                db.MakeBaseNull(), db.MakeBaseNull()};
  const std::vector<Value> num{Value::NumConst(0), Value::NumConst(1),
                               Value::NumConst(2), db.MakeNumNull(),
                               db.MakeNumNull()};
  auto pick = [&](const std::vector<Value>& pool) {
    return pool[rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1)];
  };
  for (const char* name : {"R", "S", "T"}) {
    const RelationSchema& schema = db.GetRelation(name).value()->schema();
    for (int64_t rows = rng.UniformInt(3, 5); rows > 0; --rows) {
      model::Tuple t;
      for (size_t c = 0; c < schema.arity(); ++c) {
        t.push_back(pick(schema.column(c).sort == Sort::kBase ? base : num));
      }
      MUDB_CHECK(db.Insert(name, std::move(t)).ok());
    }
  }
  return db;
}

// At most four variables, so NaiveEvaluate's active-domain loops stay small.
ConjunctiveQuery RandomNullCq(const Database& db, util::Rng& rng) {
  const std::vector<std::string> consts{"u", "v", "x", "@null_0"};
  auto index = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  ConjunctiveQuery cq;
  std::vector<std::string> base_vars;
  std::vector<std::string> num_vars;
  auto can_add = [&] { return base_vars.size() + num_vars.size() < 4; };
  const char* relations[] = {"R", "S", "T"};
  for (int64_t atoms = rng.UniformInt(2, 3); atoms > 0; --atoms) {
    CqAtom atom{relations[index(3)], {}};
    const RelationSchema& schema =
        db.GetRelation(atom.relation).value()->schema();
    for (size_t c = 0; c < schema.arity(); ++c) {
      const bool is_base = schema.column(c).sort == Sort::kBase;
      std::vector<std::string>& vars = is_base ? base_vars : num_vars;
      // 10% a constant, 45% a fresh variable, 45% a join on an old one.
      const int64_t roll = rng.UniformInt(0, 19);
      const bool fresh = can_add() && (roll >= 11 || vars.empty());
      if (roll < 2 || (!fresh && vars.empty())) {
        atom.args.push_back(
            is_base ? AtomArg::BaseConst(consts[index(consts.size())])
                    : AtomArg::NumConst(static_cast<double>(index(3))));
        continue;
      }
      if (fresh) {
        vars.push_back((is_base ? "b" : "n") + std::to_string(vars.size()));
      }
      const std::string& var = fresh ? vars.back() : vars[index(vars.size())];
      atom.args.push_back(is_base ? AtomArg::BaseVar(var)
                                  : AtomArg::NumVar(var));
    }
    cq.atoms.push_back(std::move(atom));
  }
  if (rng.UniformInt(0, 1) == 1 && !base_vars.empty()) {
    auto var = [&] {
      return logic::BaseArg::Var(base_vars[index(base_vars.size())]);
    };
    logic::BaseArg lhs = var();
    logic::BaseArg rhs =
        rng.Bernoulli(0.5)
            ? var()
            : logic::BaseArg::Const(consts[index(consts.size())]);
    cq.base_equalities.push_back({std::move(lhs), std::move(rhs)});
  }
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                       CmpOp::kNeq, CmpOp::kGe, CmpOp::kGt};
  for (int64_t n = rng.UniformInt(0, 2); n > 0 && !num_vars.empty(); --n) {
    auto var = [&] { return Term::Var(num_vars[index(num_vars.size())]); };
    Term lhs = var();
    switch (rng.UniformInt(0, 2)) {
      case 0:
        lhs = lhs + var();
        break;
      case 1:
        lhs = lhs * var();
        break;
      default:
        break;
    }
    Term rhs = rng.Bernoulli(0.5) ? var()
                                  : Term::Const(static_cast<double>(index(3)));
    cq.comparisons.push_back(CqComparison{lhs, ops[index(6)], rhs});
  }
  std::vector<TypedVar> vars;
  for (const std::string& v : base_vars) vars.push_back({v, Sort::kBase});
  for (const std::string& v : num_vars) vars.push_back({v, Sort::kNum});
  const TypedVar first = vars[index(vars.size())];
  cq.output.push_back(first);
  const TypedVar second = vars[index(vars.size())];
  if (rng.Bernoulli(0.5) && second.name != first.name) {
    cq.output.push_back(second);
  }
  return cq;
}

TEST(EvalDifferentialTest, CandidatesMatchNaiveEvaluationAtRandomValuations) {
  util::Rng rng(2024);
  size_t candidates = 0;
  size_t uncertain = 0;
  size_t with_null_output = 0;
  for (int trial = 0; trial < kDifferentialTrials; ++trial) {
    Database db = RandomNullDb(rng);
    ConjunctiveQuery cq = RandomNullCq(db, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cq.ToString() +
                 "\n" + db.ToString());
    auto result = EvaluateCq(db, cq);
    ASSERT_TRUE(result.ok()) << result.status();
    auto q = cq.ToQuery(db);
    ASSERT_TRUE(q.ok()) << q.status();
    for (int k = 0; k < kValuationsPerTrial; ++k) {
      model::Valuation v = model::MakeBijectiveBaseValuation(db, "#");
      std::vector<double> point;
      for (model::NullId id : result->null_order) {
        point.push_back(rng.Uniform(-0.5, 2.5));
        v.SetNum(id, point.back());
      }
      auto naive = NaiveEvaluate(*q, v.Apply(db));
      ASSERT_TRUE(naive.ok()) << naive.status();
      std::set<model::Tuple> images;
      for (const Candidate& c : result->candidates) {
        model::Tuple image = v.Apply(c.output);
        const bool holds = c.constraint.EvaluateAt(point);
        EXPECT_EQ(holds, naive->count(image) == 1)
            << "candidate " << c.output[0] << ", formula "
            << c.constraint.ToString();
        if (holds) images.insert(std::move(image));
      }
      EXPECT_EQ(images, *naive);
    }
    candidates += result->candidates.size();
    for (const Candidate& c : result->candidates) {
      uncertain += !c.certain;
      for (const Value& value : c.output) with_null_output += value.is_null();
    }
  }
  // The generator reaches the cases this test exists for.
  EXPECT_GT(candidates, 150u);
  EXPECT_GT(uncertain, 30u);
  EXPECT_GT(with_null_output, 90u);
}

TEST(EvalDifferentialTest, LimitKeepsAPrefixOfTheUnlimitedRun) {
  util::Rng rng(2024);
  int limited_runs = 0;
  for (int trial = 0; trial < kDifferentialTrials; ++trial) {
    Database db = RandomNullDb(rng);
    ConjunctiveQuery cq = RandomNullCq(db, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cq.ToString());
    auto all = EvaluateCq(db, cq);
    ASSERT_TRUE(all.ok()) << all.status();
    const size_t n = all->candidates.size();
    if (n < 2) continue;
    cq.limit =
        static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(n) - 1));
    auto limited = EvaluateCq(db, cq);
    ASSERT_TRUE(limited.ok()) << limited.status();
    ASSERT_EQ(limited->candidates.size(), *cq.limit);
    for (size_t i = 0; i < *cq.limit; ++i) {
      const Candidate& a = all->candidates[i];
      const Candidate& b = limited->candidates[i];
      EXPECT_EQ(b.output, a.output) << "candidate " << i;
      EXPECT_EQ(b.certain, a.certain) << "candidate " << i;
      EXPECT_EQ(b.constraint.ToString(), a.constraint.ToString())
          << "candidate " << i;
    }
    ++limited_runs;
  }
  EXPECT_GT(limited_runs, 50);
}

}  // namespace
}  // namespace mudb::engine
