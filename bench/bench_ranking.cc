// Adaptive-precision top-k ranking vs. fixed-precision full-batch ranking:
// the 64-candidate / top-8 certainty-ranking workload of the ROADMAP's
// "compare candidate answers" scenario. Candidates are planar wedge cones
// with a linear spread of ground-truth certainty (ν = α/2π ∈ ~0.02 … 0.46),
// method kFpras, so pruning has real tails to cut.
//
// Legs, interleaved A/B per round (BUILDING.md, "Profiling & benchmarks"):
//   ranking_fixed64    — all 64 candidates straight at the final ε through
//                        a fresh MeasureService batch, top-8 by estimate:
//                        what ranking cost before the ε-ladder existed.
//   ranking_adaptive64 — RankingService::RankTopK on a fresh service: the
//                        ε-ladder refines survivors only.
//
// Both legs run the final tier at the identical (ε, δ) requests, so the
// bench asserts the two top-8 *sets* are identical (and the survivors'
// estimates bit-equal) before reporting; it then requires the adaptive
// schedule to spend at most half the sampling steps (the acceptance bar).
// Rows (bench_json.h schema): samples_per_sec carries hit-and-run
// steps/sec; estimate is the Σ of the top-8 measure values (a determinism
// fingerprint), except the *_steps rows, where it is the step count, and
// the tier rows, where it is that tier's request count.
//
// Flags: --json=<path>, --quick (one round instead of three),
// --trace=<path> (bench_obs.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_obs.h"
#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/ranking_service.h"
#include "src/util/timer.h"

namespace {

using namespace mudb;  // NOLINT: bench brevity

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

constexpr int kCandidates = 64;
constexpr int kTopK = 8;
constexpr double kFinalEpsilon = 0.05;

// The planar wedge of polar angles (0, α): ν = α / (2π).
RealFormula Wedge(double alpha) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(
      C(std::cos(alpha)) * Z(1) - C(std::sin(alpha)) * Z(0), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

double WedgeAngle(int d) {
  return 0.15 + (2.75 / (kCandidates - 1)) * d;
}

service::RankingOptions Ranking() {
  service::RankingOptions opts;
  opts.k = kTopK;
  return opts;  // default schedule from coarse ε 0.2, default δ budget
}

std::vector<service::MeasureRequest> MakeCandidates(double delta) {
  std::vector<service::MeasureRequest> reqs;
  reqs.reserve(kCandidates);
  for (int d = 0; d < kCandidates; ++d) {
    measure::MeasureOptions opts;
    opts.method = measure::Method::kFpras;
    opts.epsilon = kFinalEpsilon;
    opts.delta = delta;
    opts.seed = 0xC0FFEE + d;
    reqs.push_back(service::MeasureRequest::Nu(Wedge(WedgeAngle(d)), opts));
  }
  return reqs;
}

struct LegResult {
  double wall_ms = 0.0;
  int64_t steps = 0;
  std::vector<size_t> top_k;           // most certain first
  std::vector<double> top_estimates;   // aligned with top_k
  std::vector<int64_t> tier_requests;  // adaptive leg only
  std::vector<double> tier_wall_ms;
  std::vector<int64_t> tier_steps;
};

LegResult RunFixed() {
  // The same per-estimate δ the ladder's final tier uses, so the two legs'
  // final evaluations are bit-identical requests.
  const double tier_delta = service::RankingTierDelta(Ranking(), kCandidates);
  service::MeasureService svc;
  auto outcome = svc.RunBatch(MakeCandidates(tier_delta));
  LegResult leg;
  leg.wall_ms = outcome.stats.wall_ms;
  leg.steps = outcome.stats.sampling_steps;
  std::vector<double> value(kCandidates);
  for (int i = 0; i < kCandidates; ++i) {
    if (!outcome.results[i].ok()) {
      std::fprintf(stderr, "fixed leg request %d failed: %s\n", i,
                   outcome.results[i].status().ToString().c_str());
      std::exit(1);
    }
    value[i] = outcome.results[i]->value;
  }
  std::vector<size_t> order(kCandidates);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (value[a] != value[b]) return value[a] > value[b];
    return a < b;
  });
  order.resize(kTopK);
  leg.top_k = order;
  for (size_t i : order) leg.top_estimates.push_back(value[i]);
  return leg;
}

LegResult RunAdaptive() {
  service::MeasureService svc;
  service::RankingService ranking(&svc);
  util::WallTimer timer;
  auto outcome = ranking.RankTopK(MakeCandidates(/*delta=*/0.25), Ranking());
  if (!outcome.ok()) {
    std::fprintf(stderr, "adaptive leg failed: %s\n",
                 outcome.status().ToString().c_str());
    std::exit(1);
  }
  LegResult leg;
  leg.wall_ms = timer.ElapsedMillis();
  leg.steps = outcome->total_sampling_steps;
  leg.top_k = outcome->top_k;
  for (size_t i : leg.top_k) {
    leg.top_estimates.push_back(outcome->candidates[i].result.value);
  }
  for (const service::BatchStats& stats : outcome->tier_stats) {
    leg.tier_requests.push_back(stats.requests);
    leg.tier_wall_ms.push_back(stats.wall_ms);
    leg.tier_steps.push_back(stats.sampling_steps);
  }
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonFlagPath(argc, argv);
  const bench::ObsFlags obs_flags = bench::ParseObsFlags(argc, argv);
  const bool quick = bench::QuickFlag(argc, argv);
  const int rounds = quick ? 1 : 3;

  // Interleaved A/B rounds: host timing noise hits both legs equally.
  double fixed_ms = 0.0, adaptive_ms = 0.0;
  int64_t fixed_steps = 0, adaptive_steps = 0;
  double fixed_sum = 0.0, adaptive_sum = 0.0;
  LegResult adaptive_last;
  for (int round = 0; round < rounds; ++round) {
    LegResult fixed = RunFixed();
    LegResult adaptive = RunAdaptive();

    // Hard determinism gate before any reporting: identical top-8 set, and
    // bit-identical final estimates on it.
    std::vector<size_t> fixed_set = fixed.top_k;
    std::vector<size_t> adaptive_set = adaptive.top_k;
    std::sort(fixed_set.begin(), fixed_set.end());
    std::sort(adaptive_set.begin(), adaptive_set.end());
    if (fixed_set != adaptive_set) {
      std::fprintf(stderr,
                   "FATAL: adaptive top-%d set diverges from fixed-precision "
                   "ranking\n",
                   kTopK);
      return 1;
    }
    for (int r = 0; r < kTopK; ++r) {
      if (fixed.top_k[r] != adaptive.top_k[r] ||
          fixed.top_estimates[r] != adaptive.top_estimates[r]) {
        std::fprintf(stderr,
                     "FATAL: rank %d diverges (fixed #%zu %.17g, adaptive "
                     "#%zu %.17g)\n",
                     r, fixed.top_k[r], fixed.top_estimates[r],
                     adaptive.top_k[r], adaptive.top_estimates[r]);
        return 1;
      }
    }

    fixed_ms += fixed.wall_ms;
    adaptive_ms += adaptive.wall_ms;
    fixed_steps += fixed.steps;
    adaptive_steps += adaptive.steps;
    fixed_sum = 0.0;
    adaptive_sum = 0.0;
    for (double v : fixed.top_estimates) fixed_sum += v;
    for (double v : adaptive.top_estimates) adaptive_sum += v;
    adaptive_last = adaptive;
  }
  fixed_ms /= rounds;
  adaptive_ms /= rounds;
  fixed_steps /= rounds;
  adaptive_steps /= rounds;

  const double step_ratio =
      static_cast<double>(fixed_steps) / static_cast<double>(adaptive_steps);
  auto steps_per_sec = [](int64_t steps, double ms) {
    return ms > 0 ? static_cast<double>(steps) / (ms / 1e3) : 0.0;
  };

  std::printf("%-22s %12s %14s %10s\n", "leg", "wall_ms", "steps", "top8");
  std::printf("%-22s %12.1f %14lld %10.4f\n", "ranking_fixed64", fixed_ms,
              static_cast<long long>(fixed_steps), fixed_sum);
  std::printf("%-22s %12.1f %14lld %10.4f\n", "ranking_adaptive64",
              adaptive_ms, static_cast<long long>(adaptive_steps),
              adaptive_sum);
  for (size_t t = 0; t < adaptive_last.tier_requests.size(); ++t) {
    std::printf("  tier %zu: %3lld requests, %10lld steps, %8.1f ms\n", t,
                static_cast<long long>(adaptive_last.tier_requests[t]),
                static_cast<long long>(adaptive_last.tier_steps[t]),
                adaptive_last.tier_wall_ms[t]);
  }
  std::printf("sampling-step reduction: %.2fx (wall %.2fx)\n", step_ratio,
              fixed_ms / adaptive_ms);

  if (step_ratio < 2.0) {
    std::fprintf(stderr,
                 "FATAL: adaptive ranking saved only %.2fx sampling steps "
                 "(acceptance bar: >= 2x)\n",
                 step_ratio);
    return 1;
  }

  bench::BenchJson json("ranking");
  json.Add({"ranking_fixed64", 1, fixed_ms,
            steps_per_sec(fixed_steps, fixed_ms), fixed_sum});
  json.Add({"ranking_adaptive64", 1, adaptive_ms,
            steps_per_sec(adaptive_steps, adaptive_ms), adaptive_sum});
  json.Add({"ranking_fixed64_steps", 1, fixed_ms, 0.0,
            static_cast<double>(fixed_steps)});
  json.Add({"ranking_adaptive64_steps", 1, adaptive_ms, 0.0,
            static_cast<double>(adaptive_steps)});
  json.Add({"ranking_steps_ratio", 1, 0.0, 0.0, step_ratio});
  for (size_t t = 0; t < adaptive_last.tier_requests.size(); ++t) {
    json.Add({"ranking_tier" + std::to_string(t), 1,
              adaptive_last.tier_wall_ms[t],
              steps_per_sec(adaptive_last.tier_steps[t],
                            adaptive_last.tier_wall_ms[t]),
              static_cast<double>(adaptive_last.tier_requests[t])});
  }
  if (!json.WriteTo(json_path)) return 1;
  if (!bench::WriteObsOutputs(obs_flags)) return 1;
  return 0;
}
