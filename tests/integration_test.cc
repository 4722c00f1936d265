// End-to-end integration tests: the paper's introduction example and the §9
// experimental pipeline (SQL → candidate enumeration → measures) at a small
// scale.

#include <cmath>

#include <gtest/gtest.h>

#include "src/datagen/datagen.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/sql/parser.h"
#include "src/translate/ground.h"

namespace mudb {
namespace {

using engine::EvaluateCq;
using logic::CmpOp;
using measure::ComputeNu;
using measure::MeasureOptions;
using model::Value;

// The three §9 queries, with the reconstructions documented in
// bench/e2e/EXPERIMENTS.md (divisions multiplied out; Orders linked to
// Products in the undersold query; M.rrp for the garbled "M.id").
constexpr const char* kCompetitiveAdvantage =
    "SELECT P.seg FROM Products P, Market M "
    "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25";
constexpr const char* kUndersold =
    "SELECT P.id FROM Products P, Orders O, Market M "
    "WHERE P.seg = M.seg AND P.id = O.pr AND "
    "P.rrp * P.dis * O.q <= 0.5 * M.rrp * M.dis * O.dis LIMIT 25";
constexpr const char* kUnfairDiscount =
    "SELECT O.id FROM Products P, Orders O "
    "WHERE P.id = O.pr AND O.dis >= 1.6 * P.dis * O.q LIMIT 25";

TEST(IntegrationTest, SalesPipelineEndToEnd) {
  datagen::SalesConfig config;
  config.num_products = 2000;
  config.num_orders = 1200;
  config.num_segments = 40;
  config.null_rate = 0.08;
  config.seed = 7;
  auto db = datagen::MakeSalesDatabase(config);
  ASSERT_TRUE(db.ok());

  for (const char* sql :
       {kCompetitiveAdvantage, kUndersold, kUnfairDiscount}) {
    auto cq = sql::ParseSqlQuery(sql, *db);
    ASSERT_TRUE(cq.ok()) << cq.status() << "\n" << sql;
    auto result = EvaluateCq(*db, *cq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LE(result->candidates.size(), 25u);
    EXPECT_FALSE(result->candidates.empty()) << sql;
    for (const engine::Candidate& c : result->candidates) {
      MeasureOptions opts;
      opts.epsilon = 0.05;
      auto mu = ComputeNu(c.constraint, opts);
      ASSERT_TRUE(mu.ok()) << mu.status();
      EXPECT_GE(mu->value, 0.0);
      EXPECT_LE(mu->value, 1.0);
      if (c.certain) {
        EXPECT_DOUBLE_EQ(mu->value, 1.0);
      }
    }
  }
}

TEST(IntegrationTest, UncertainCandidatesExist) {
  // With a meaningful null rate some candidates must be genuinely uncertain
  // (0 < μ < 1), otherwise the whole framework is pointless.
  datagen::SalesConfig config;
  config.num_products = 2000;
  config.num_orders = 1000;
  config.num_segments = 30;
  config.null_rate = 0.3;
  config.seed = 11;
  auto db = datagen::MakeSalesDatabase(config);
  ASSERT_TRUE(db.ok());
  auto cq = sql::ParseSqlQuery(kCompetitiveAdvantage, *db);
  ASSERT_TRUE(cq.ok());
  auto result = EvaluateCq(*db, *cq);
  ASSERT_TRUE(result.ok());
  int uncertain = 0;
  for (const engine::Candidate& c : result->candidates) {
    MeasureOptions opts;
    auto mu = ComputeNu(c.constraint, opts);
    ASSERT_TRUE(mu.ok());
    if (mu->value > 1e-6 && mu->value < 1.0 - 1e-6) ++uncertain;
  }
  EXPECT_GT(uncertain, 0);
}

TEST(IntegrationTest, MeasuresAreSeedStable) {
  datagen::SalesConfig config;
  config.num_products = 500;
  config.num_orders = 300;
  config.num_segments = 10;
  config.null_rate = 0.2;
  auto db = datagen::MakeSalesDatabase(config);
  ASSERT_TRUE(db.ok());
  auto cq = sql::ParseSqlQuery(kCompetitiveAdvantage, *db);
  ASSERT_TRUE(cq.ok());
  auto result = EvaluateCq(*db, *cq);
  ASSERT_TRUE(result.ok());
  for (const engine::Candidate& c : result->candidates) {
    MeasureOptions opts;
    opts.method = measure::Method::kAfpras;
    opts.epsilon = 0.05;
    opts.seed = 1234;
    auto a = ComputeNu(c.constraint, opts);
    auto b = ComputeNu(c.constraint, opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->value, b->value);
  }
}

TEST(IntegrationTest, AfprasVersusExactOnPipelineConstraints) {
  // For candidates whose constraints touch <= 2 nulls, the exact 2-D engine
  // provides ground truth for the AFPRAS estimate.
  datagen::SalesConfig config;
  config.num_products = 800;
  config.num_orders = 500;
  config.num_segments = 20;
  config.null_rate = 0.15;
  config.seed = 3;
  auto db = datagen::MakeSalesDatabase(config);
  ASSERT_TRUE(db.ok());
  // Per-product candidates keep each constraint on a couple of nulls, so the
  // exact 2-D engine applies to many of them.
  auto cq = sql::ParseSqlQuery(
      "SELECT P.id FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 100",
      *db);
  ASSERT_TRUE(cq.ok());
  auto result = EvaluateCq(*db, *cq);
  ASSERT_TRUE(result.ok());
  int checked = 0;
  for (const engine::Candidate& c : result->candidates) {
    if (c.certain || c.constraint.UsedVariables().size() > 2) continue;
    MeasureOptions exact_opts;
    exact_opts.method = measure::Method::kExact2D;
    auto exact = ComputeNu(c.constraint, exact_opts);
    ASSERT_TRUE(exact.ok()) << exact.status();
    MeasureOptions approx_opts;
    approx_opts.method = measure::Method::kAfpras;
    approx_opts.epsilon = 0.02;
    approx_opts.delta = 0.001;
    auto approx = ComputeNu(c.constraint, approx_opts);
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(approx->value, exact->value, 0.02);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(IntegrationTest, CampaignExampleViaFullQuery) {
  // End-to-end μ for the introduction's query over the campaign database.
  auto campaign = datagen::MakeCampaignDatabase();
  ASSERT_TRUE(campaign.ok());
  const model::Database& db = campaign->db;

  logic::Formula antecedent = logic::Formula::And([] {
    std::vector<logic::Formula> v;
    v.push_back(logic::Formula::Rel(
        "Products",
        {logic::AtomArg::BaseVar("i"), logic::AtomArg::BaseVar("s"),
         logic::AtomArg::NumVar("r"), logic::AtomArg::NumVar("d")}));
    v.push_back(logic::Formula::Not(logic::Formula::Rel(
        "Excluded",
        {logic::AtomArg::BaseVar("i"), logic::AtomArg::BaseVar("s")})));
    v.push_back(logic::Formula::Rel(
        "Competition", {logic::AtomArg::BaseVar("ip"),
                        logic::AtomArg::BaseVar("s"),
                        logic::AtomArg::NumVar("p")}));
    return v;
  }());
  logic::Formula consequent = logic::Formula::And([] {
    std::vector<logic::Formula> v;
    v.push_back(logic::Formula::Cmp(
        logic::Term::Var("r") * logic::Term::Var("d"), CmpOp::kLe,
        logic::Term::Var("p")));
    v.push_back(logic::Formula::Cmp(logic::Term::Var("r"), CmpOp::kGe,
                                    logic::Term::Const(0)));
    v.push_back(logic::Formula::Cmp(logic::Term::Var("d"), CmpOp::kGe,
                                    logic::Term::Const(0)));
    v.push_back(logic::Formula::Cmp(logic::Term::Var("p"), CmpOp::kGe,
                                    logic::Term::Const(0)));
    return v;
  }());
  logic::Formula f = logic::Formula::ForallMany(
      {logic::TypedVar{"i", model::Sort::kBase},
       logic::TypedVar{"r", model::Sort::kNum},
       logic::TypedVar{"d", model::Sort::kNum},
       logic::TypedVar{"ip", model::Sort::kBase},
       logic::TypedVar{"p", model::Sort::kNum}},
      logic::Formula::Implies(antecedent, consequent));
  auto q = logic::Query::MakeWithOutput(
      f, {logic::TypedVar{"s", model::Sort::kBase}}, db);
  ASSERT_TRUE(q.ok()) << q.status();

  MeasureOptions opts;
  auto mu = measure::ComputeMeasure(*q, db, {Value::BaseConst("s")}, opts);
  ASSERT_TRUE(mu.ok()) << mu.status();
  EXPECT_TRUE(mu->is_exact);
  EXPECT_NEAR(mu->value, std::atan(10.0 / 7.0) / (2 * M_PI), 1e-9);

  // Restricted to the positive quadrant, the conditional measure matches the
  // intro's 0.611-style reasoning for the literal query; the printed paper
  // values (0.097 / 0.388) correspond to the flipped comparison — covered in
  // translate_test and bench/e2e/EXPERIMENTS.md.
  MeasureOptions afpras_opts;
  afpras_opts.method = measure::Method::kAfpras;
  afpras_opts.epsilon = 0.02;
  afpras_opts.delta = 0.001;
  auto approx = measure::ComputeMeasure(*q, db, {Value::BaseConst("s")},
                                        afpras_opts);
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx->value, mu->value, 0.02);
}

TEST(IntegrationTest, CertainAnswerHasMeasureOneAcrossPipelines) {
  // A query with no arithmetic on nulls: candidates are certain in both the
  // CQ pipeline and the general grounding.
  model::Database db;
  ASSERT_TRUE(db.CreateRelation(model::RelationSchema(
                   "R", {{"a", model::Sort::kBase},
                         {"x", model::Sort::kNum}}))
                  .ok());
  ASSERT_TRUE(
      db.Insert("R", {Value::BaseConst("k"), db.MakeNumNull()}).ok());
  auto cq = sql::ParseSqlQuery("SELECT R.a FROM R", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  auto result = EvaluateCq(db, *cq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);

  auto q = cq->ToQuery(db);
  ASSERT_TRUE(q.ok());
  MeasureOptions opts;
  auto mu = measure::ComputeMeasure(*q, db, {Value::BaseConst("k")}, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_DOUBLE_EQ(mu->value, 1.0);
}

}  // namespace
}  // namespace mudb
