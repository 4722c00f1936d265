// Shared harness for the three Figure 1 benchmarks (Section 9).
//
// Regenerates one subplot of Figure 1: for ε from 0.10 down to 0.01 in steps
// of 0.005 (19 points, the paper's grid), the time of the Monte-Carlo
// confidence phase over the LIMIT-25 candidate set of one decision-support
// query on the synthetic sales database.
//
// Expected shape (what the paper's figure shows): time grows as ε^{-2} as ε
// decreases, sub-linear-in-ε elsewhere; absolute numbers differ from the
// paper's Python/NumPy prototype (this is native code), but the curve's
// shape and the "seconds, not minutes, even at ε = 0.01" conclusion carry
// over. See bench/e2e/EXPERIMENTS.md.

#ifndef MUDB_BENCH_FIG1_COMMON_H_
#define MUDB_BENCH_FIG1_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/datagen/datagen.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/sql/parser.h"
#include "src/util/timer.h"

namespace mudb::bench {

inline int RunFig1(const char* name, const char* sql, int argc, char** argv) {
  datagen::SalesConfig config;
  // Paper scale is ~200K tuples total (100000 60000 500); the default keeps
  // the default `ctest && bench/*` loop fast. Override via argv.
  config.num_products = argc > 1 ? std::atoll(argv[1]) : 40000;
  config.num_orders = argc > 2 ? std::atoll(argv[2]) : 24000;
  config.num_segments = argc > 3 ? std::atoll(argv[3]) : 400;
  config.null_rate = 0.08;

  std::printf("# Figure 1 — %s\n", name);
  std::printf("# %s\n", sql);
  util::WallTimer setup;
  auto db = datagen::MakeSalesDatabase(config);
  MUDB_CHECK(db.ok());
  auto cq = sql::ParseSqlQuery(sql, *db);
  if (!cq.ok()) {
    std::fprintf(stderr, "parse error: %s\n", cq.status().ToString().c_str());
    return 1;
  }
  util::WallTimer join_timer;
  auto result = engine::EvaluateCq(*db, *cq);
  if (!result.ok()) {
    std::fprintf(stderr, "eval error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "# db: %zu tuples (%zu numeric nulls), setup %.2fs; naive evaluation: "
      "%zu candidates from %zu witnesses in %.3fs\n",
      db->TotalTuples(), db->CollectNumNullIds().size(),
      setup.ElapsedSeconds() - join_timer.ElapsedSeconds(),
      result->candidates.size(), result->witnesses_enumerated,
      join_timer.ElapsedSeconds());
  std::printf("#\n# %8s %10s %14s %14s\n", "eps*1e3", "samples",
              "mc_time_ms", "ms_per_tuple");

  // The paper's x axis: ε·10³ from 100 down to 10 in steps of 5.
  for (int eps_milli = 100; eps_milli >= 10; eps_milli -= 5) {
    double eps = eps_milli / 1000.0;
    measure::MeasureOptions opts;
    opts.method = measure::Method::kAfpras;  // the §8 algorithm, as in §9
    opts.epsilon = eps;
    opts.delta = 0.25;  // the paper's 3/4-confidence setting
    util::WallTimer timer;
    int64_t samples = 0;
    for (const engine::Candidate& c : result->candidates) {
      auto mu = measure::ComputeNu(c.constraint, opts);
      MUDB_CHECK(mu.ok());
      samples += mu->samples;
    }
    double ms = timer.ElapsedMillis();
    std::printf("  %8d %10lld %14.3f %14.4f\n", eps_milli,
                static_cast<long long>(samples), ms,
                result->candidates.empty()
                    ? 0.0
                    : ms / static_cast<double>(result->candidates.size()));
  }
  std::printf("\n");
  return 0;
}

}  // namespace mudb::bench

#endif  // MUDB_BENCH_FIG1_COMMON_H_
