// Proposition 6.1: the query q = ∃x,y R(x,y) && x >= 0 && y <= α·x on
// R = {(⊤, ⊤')} has μ(q, D) = arctan(α)/2π + 1/4 (rational only for
// α ∈ {0, ±1} up to the additive constant — the irrationality carrier is the
// arctan term). This bench sweeps α and reports the exact 2-D value, the
// closed form, and an AFPRAS estimate.
//
// Note: the paper states the offset as 1/2; the direct angle calculation for
// the literal formula {x >= 0, y <= αx} gives 1/4 (see
// bench/e2e/EXPERIMENTS.md). The proposition's content — irrationality of μ
// for α ∉ {0, ±1} — is unchanged.

#include <cmath>
#include <cstdio>

#include "src/logic/formula.h"
#include "src/measure/measure.h"
#include "src/model/database.h"
#include "src/util/timer.h"

int main() {
  using namespace mudb;  // NOLINT: bench brevity
  std::printf("# Proposition 6.1 — mu = arctan(alpha)/2pi + 1/4\n");
  std::printf("# %8s %12s %12s %12s %12s %10s\n", "alpha", "exact2d",
              "closed", "afpras(1e-2)", "abs_err", "time_ms");

  for (double alpha : {-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0}) {
    model::Database db;
    MUDB_CHECK(db.CreateRelation(model::RelationSchema(
                   "R", {{"x", model::Sort::kNum}, {"y", model::Sort::kNum}}))
                   .ok());
    MUDB_CHECK(db.Insert("R", {db.MakeNumNull(), db.MakeNumNull()}).ok());

    logic::Formula f = logic::Formula::ExistsMany(
        {logic::TypedVar{"x", model::Sort::kNum},
         logic::TypedVar{"y", model::Sort::kNum}},
        logic::Formula::And([&] {
          std::vector<logic::Formula> v;
          v.push_back(logic::Formula::Rel("R", {logic::AtomArg::NumVar("x"),
                                                logic::AtomArg::NumVar("y")}));
          v.push_back(logic::Formula::Cmp(logic::Term::Var("x"),
                                          logic::CmpOp::kGe,
                                          logic::Term::Const(0)));
          v.push_back(logic::Formula::Cmp(
              logic::Term::Var("y"), logic::CmpOp::kLe,
              logic::Term::Const(alpha) * logic::Term::Var("x")));
          return v;
        }()));
    auto q = logic::Query::Make(std::move(f), db);
    MUDB_CHECK(q.ok());

    measure::MeasureOptions exact_opts;
    exact_opts.method = measure::Method::kExact2D;
    auto exact = measure::ComputeMeasure(*q, db, {}, exact_opts);
    MUDB_CHECK(exact.ok());

    double closed = std::atan(alpha) / (2 * M_PI) + 0.25;

    measure::MeasureOptions approx_opts;
    approx_opts.method = measure::Method::kAfpras;
    approx_opts.epsilon = 0.01;
    util::WallTimer timer;
    auto approx = measure::ComputeMeasure(*q, db, {}, approx_opts);
    MUDB_CHECK(approx.ok());
    std::printf("  %8.2f %12.6f %12.6f %12.6f %12.6f %10.3f\n", alpha,
                exact->value, closed, approx->value,
                std::fabs(approx->value - exact->value),
                timer.ElapsedMillis());
  }
  return 0;
}
