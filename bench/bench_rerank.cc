// Incremental re-ranking vs. cold ranking: the 64-candidate / top-8 wedge
// workload of bench_ranking, driven through a RankingSession. One session
// ranks the candidates cold, then absorbs two single-candidate mutations —
// a tail candidate far from the cut (#5) and a top-8 member (#60) — and
// re-ranks after each. Content-keyed invalidation must keep every untouched
// candidate's warm tiers, so a delta re-rank pays a small fraction of the
// cold schedule.
//
// Legs:
//   rerank_cold64 — fresh session, insert all 64: identical work (and
//                   bit-identical outcome, asserted) to RankTopK.
//   rerank_tail   — mutate non-contender #5, Rerank.
//   rerank_top    — mutate top-8 member #60, Rerank (session now carries
//                   both mutations).
//
// Hard gates before any reporting:
//   * each re-rank outcome is bit-identical to a COLD ranking of the same
//     final candidate state, on fresh services with 1 and 4 threads (the
//     rerank determinism contract, ranking_session.h);
//   * the cold session leg is bit-identical to RankingService::RankTopK;
//   * each delta re-rank costs <= 25% of the cold leg's sampling steps
//     (the acceptance bar).
// Rows (bench_json.h schema): samples_per_sec carries hit-and-run
// steps/sec; estimate is the Σ of the top-8 measure values as a determinism
// fingerprint, except the *_steps rows (step count), the *_ratio rows
// (rerank steps / cold steps), and the *_warm rows (memo hits).
//
// Flags: --json=<path>, --quick (one round instead of three),
// --trace=<path> (bench_obs.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_obs.h"
#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/ranking_service.h"
#include "src/service/ranking_session.h"
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
constexpr int kTailMutant = 5;   // far below the cut: ν ≈ 0.06
constexpr int kTopMutant = 60;   // solid top-8 member: ν ≈ 0.44
constexpr double kMaxDeltaRatio = 0.25;  // acceptance bar

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

service::MeasureRequest Candidate(int d, double angle_shift = 0.0) {
  measure::MeasureOptions opts;
  opts.method = measure::Method::kFpras;
  opts.epsilon = kFinalEpsilon;
  opts.delta = 0.25;  // overridden by the tier δ split
  opts.seed = 0xC0FFEE + d;
  return service::MeasureRequest::Nu(Wedge(WedgeAngle(d) + angle_shift),
                                     opts);
}

// The workload after `stage` mutations: 0 = pristine, 1 = #5 mutated,
// 2 = #5 and #60 mutated.
std::vector<service::MeasureRequest> Workload(int stage) {
  std::vector<service::MeasureRequest> reqs;
  reqs.reserve(kCandidates);
  for (int d = 0; d < kCandidates; ++d) {
    double shift = 0.0;
    if (stage >= 1 && d == kTailMutant) shift = 0.015;
    if (stage >= 2 && d == kTopMutant) shift = 0.02;
    reqs.push_back(Candidate(d, shift));
  }
  return reqs;
}

double TopSum(const service::RerankOutcome& outcome) {
  double sum = 0.0;
  for (service::CandidateId id : outcome.top_k) {
    sum += outcome.candidates[id].result.value;
  }
  return sum;
}

// Bit-level equality of the determinism-contract fields; dies loudly on the
// first divergence.
void AssertSameRanking(const service::RerankOutcome& a,
                       const service::RerankOutcome& b, const char* what) {
  bool same = a.top_k == b.top_k && a.candidates.size() == b.candidates.size();
  for (size_t i = 0; same && i < a.candidates.size(); ++i) {
    const service::SessionCandidate& ca = a.candidates[i];
    const service::SessionCandidate& cb = b.candidates[i];
    same = ca.id == cb.id && ca.result.value == cb.result.value &&
           ca.result.ci_lo == cb.result.ci_lo &&
           ca.result.ci_hi == cb.result.ci_hi &&
           ca.result.tier == cb.result.tier && ca.pruned == cb.pruned &&
           ca.frozen == cb.frozen;
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: %s diverges from its cold reference\n",
                 what);
    std::exit(1);
  }
}

// A cold ranking of `reqs` on a fresh service with `threads` workers.
service::RerankOutcome ColdRank(std::vector<service::MeasureRequest> reqs,
                                int threads) {
  service::ServiceOptions sopts;
  sopts.num_threads = threads;
  service::MeasureService svc(sopts);
  service::RankingSession session(&svc, Ranking());
  service::RankingDelta delta;
  delta.inserts = std::move(reqs);
  auto outcome = session.Rerank(std::move(delta));
  if (!outcome.ok()) {
    std::fprintf(stderr, "cold rank failed: %s\n",
                 outcome.status().ToString().c_str());
    std::exit(1);
  }
  return *outcome;
}

struct Leg {
  double wall_ms = 0.0;
  int64_t steps = 0;
  int64_t warm_hits = 0;
  double top_sum = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonFlagPath(argc, argv);
  const bench::ObsFlags obs_flags = bench::ParseObsFlags(argc, argv);
  const bool quick = bench::QuickFlag(argc, argv);
  const int rounds = quick ? 1 : 3;

  Leg cold_leg, tail_leg, top_leg;
  for (int round = 0; round < rounds; ++round) {
    service::MeasureService svc;
    service::RankingSession session(&svc, Ranking());

    util::WallTimer cold_timer;
    service::RankingDelta insert_all;
    insert_all.inserts = Workload(0);
    auto cold = session.Rerank(std::move(insert_all));
    if (!cold.ok()) {
      std::fprintf(stderr, "cold leg failed: %s\n",
                   cold.status().ToString().c_str());
      return 1;
    }
    cold_leg.wall_ms += cold_timer.ElapsedMillis();
    cold_leg.steps = cold->total_sampling_steps;
    cold_leg.top_sum = TopSum(*cold);

    util::WallTimer tail_timer;
    service::RankingDelta mutate_tail;
    mutate_tail.updates.emplace_back(kTailMutant, Candidate(kTailMutant,
                                                            0.015));
    auto tail = session.Rerank(std::move(mutate_tail));
    if (!tail.ok()) {
      std::fprintf(stderr, "tail rerank failed: %s\n",
                   tail.status().ToString().c_str());
      return 1;
    }
    tail_leg.wall_ms += tail_timer.ElapsedMillis();
    tail_leg.steps = tail->total_sampling_steps;
    tail_leg.warm_hits = tail->warm_hits;
    tail_leg.top_sum = TopSum(*tail);

    util::WallTimer top_timer;
    service::RankingDelta mutate_top;
    mutate_top.updates.emplace_back(kTopMutant, Candidate(kTopMutant, 0.02));
    auto top = session.Rerank(std::move(mutate_top));
    if (!top.ok()) {
      std::fprintf(stderr, "top rerank failed: %s\n",
                   top.status().ToString().c_str());
      return 1;
    }
    top_leg.wall_ms += top_timer.ElapsedMillis();
    top_leg.steps = top->total_sampling_steps;
    top_leg.warm_hits = top->warm_hits;
    top_leg.top_sum = TopSum(*top);

    if (round == 0) {
      // Determinism gates: every outcome must be bit-identical to a cold
      // ranking of the same final state, independent of thread count —
      // and the cold session leg must match the one-shot scheduler.
      for (int threads : {1, 4}) {
        AssertSameRanking(ColdRank(Workload(0), threads), *cold,
                          "cold session leg");
        AssertSameRanking(ColdRank(Workload(1), threads), *tail,
                          "tail rerank");
        AssertSameRanking(ColdRank(Workload(2), threads), *top,
                          "top rerank");
      }
      service::MeasureService oneshot;
      auto via_topk =
          service::RankingService(&oneshot).RankTopK(Workload(0), Ranking());
      if (!via_topk.ok()) {
        std::fprintf(stderr, "RankTopK reference failed: %s\n",
                     via_topk.status().ToString().c_str());
        return 1;
      }
      bool same = via_topk->top_k.size() == cold->top_k.size();
      for (size_t r = 0; same && r < cold->top_k.size(); ++r) {
        same = static_cast<size_t>(cold->top_k[r]) == via_topk->top_k[r];
      }
      for (size_t i = 0; same && i < cold->candidates.size(); ++i) {
        same = cold->candidates[i].result.value ==
               via_topk->candidates[i].result.value;
      }
      if (!same || cold->total_sampling_steps !=
                       via_topk->total_sampling_steps) {
        std::fprintf(stderr,
                     "FATAL: cold session diverges from RankTopK\n");
        return 1;
      }
    }
  }
  cold_leg.wall_ms /= rounds;
  tail_leg.wall_ms /= rounds;
  top_leg.wall_ms /= rounds;

  const double tail_ratio = static_cast<double>(tail_leg.steps) /
                            static_cast<double>(cold_leg.steps);
  const double top_ratio = static_cast<double>(top_leg.steps) /
                           static_cast<double>(cold_leg.steps);
  auto steps_per_sec = [](int64_t steps, double ms) {
    return ms > 0 ? static_cast<double>(steps) / (ms / 1e3) : 0.0;
  };

  std::printf("%-16s %12s %14s %10s %10s\n", "leg", "wall_ms", "steps",
              "warm", "top8");
  std::printf("%-16s %12.1f %14lld %10s %10.4f\n", "rerank_cold64",
              cold_leg.wall_ms, static_cast<long long>(cold_leg.steps), "-",
              cold_leg.top_sum);
  std::printf("%-16s %12.1f %14lld %10lld %10.4f\n", "rerank_tail",
              tail_leg.wall_ms, static_cast<long long>(tail_leg.steps),
              static_cast<long long>(tail_leg.warm_hits), tail_leg.top_sum);
  std::printf("%-16s %12.1f %14lld %10lld %10.4f\n", "rerank_top",
              top_leg.wall_ms, static_cast<long long>(top_leg.steps),
              static_cast<long long>(top_leg.warm_hits), top_leg.top_sum);
  std::printf("delta / cold sampling steps: tail %.4f, top %.4f "
              "(bar: <= %.2f)\n",
              tail_ratio, top_ratio, kMaxDeltaRatio);

  if (tail_ratio > kMaxDeltaRatio || top_ratio > kMaxDeltaRatio) {
    std::fprintf(stderr,
                 "FATAL: a delta rerank spent more than %.0f%% of the cold "
                 "schedule (tail %.4f, top %.4f)\n",
                 kMaxDeltaRatio * 100, tail_ratio, top_ratio);
    return 1;
  }

  bench::BenchJson json("rerank");
  json.Add({"rerank_cold64", 1, cold_leg.wall_ms,
            steps_per_sec(cold_leg.steps, cold_leg.wall_ms),
            cold_leg.top_sum});
  json.Add({"rerank_tail", 1, tail_leg.wall_ms,
            steps_per_sec(tail_leg.steps, tail_leg.wall_ms),
            tail_leg.top_sum});
  json.Add({"rerank_top", 1, top_leg.wall_ms,
            steps_per_sec(top_leg.steps, top_leg.wall_ms), top_leg.top_sum});
  json.Add({"rerank_cold64_steps", 1, cold_leg.wall_ms, 0.0,
            static_cast<double>(cold_leg.steps)});
  json.Add({"rerank_tail_steps", 1, tail_leg.wall_ms, 0.0,
            static_cast<double>(tail_leg.steps)});
  json.Add({"rerank_top_steps", 1, top_leg.wall_ms, 0.0,
            static_cast<double>(top_leg.steps)});
  json.Add({"rerank_tail_ratio", 1, 0.0, 0.0, tail_ratio});
  json.Add({"rerank_top_ratio", 1, 0.0, 0.0, top_ratio});
  json.Add({"rerank_tail_warm", 1, 0.0, 0.0,
            static_cast<double>(tail_leg.warm_hits)});
  json.Add({"rerank_top_warm", 1, 0.0, 0.0,
            static_cast<double>(top_leg.warm_hits)});
  if (!json.WriteTo(json_path)) return 1;
  if (!bench::WriteObsOutputs(obs_flags)) return 1;
  return 0;
}
