// Serving-layer throughput: MeasureService batches vs. sequential
// ComputeNu on a candidate-sweep workload with shared constraint geometry —
// the paper's μ(q, D, (a,s)) evaluated for many candidate tuples over one
// database, modeled as 64 FPRAS requests drawn from 16 distinct formulas
// (each repeated 4×, i.e. repeated candidates), every formula sharing one
// cone with the whole batch (≥ 50% of bodies shared).
//
// Legs, interleaved A/B per round (BUILDING.md, "Profiling & benchmarks"):
//   sequential_batch64 — one ComputeNu per request, fresh engine state: the
//                        direct-API baseline.
//   service_batch64    — the same requests through a fresh MeasureService
//                        (canonical dedup + estimate cache + result memo).
//   service_repeat64   — the identical batch again on the warm service:
//                        pure cache-replay throughput.
//
// The bench asserts the service results are bit-identical to the sequential
// leg before reporting. Rows (bench_json.h schema): samples_per_sec carries
// requests/sec; estimate is the Σ of measure values (a determinism
// fingerprint) except for the *_hit_rate rows, where it is the cache hit
// rate of that leg.
//
// The bench also locks in the tracing contract (ISSUE: observability must
// be free and invisible): a fourth leg runs the same batch with span
// recording enabled and hard-asserts bit-identity against the untraced
// legs, and a microbenchmark-derived overhead bound — per-span cost ×
// spans actually recorded — must stay within 2% of the untraced batch
// wall time (derived, not wall A/B, so host timing noise cannot flake it;
// the wall ratio is still printed for reference).
//
// Flags: --json=<path>, --quick (one round, CI-sized), --trace=<path>
// (bench_obs.h).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_obs.h"
#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/util/timer.h"

namespace {

using namespace mudb;  // NOLINT: bench brevity

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

constexpr int kBatch = 64;
constexpr int kDistinct = 16;
constexpr double kEpsilon = 0.35;

// Distinct request d: (shared positive orthant) ∨ (private cone d). The
// shared disjunct grounds to the same canonical body in every request.
RealFormula Workload(int d) {
  std::vector<RealFormula> shared;
  for (int i = 0; i < 3; ++i) {
    shared.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> priv;
  // A rotated cone: z0 < d-dependent mix of the others, all negated.
  priv.push_back(RealFormula::Cmp(Z(0) + C(1.0 + d) * Z(1), CmpOp::kLt));
  priv.push_back(RealFormula::Cmp(Z(1) + C(0.5 + d) * Z(2), CmpOp::kLt));
  priv.push_back(RealFormula::Cmp(Z(2), CmpOp::kLt));
  std::vector<RealFormula> ors{RealFormula::And(std::move(shared)),
                               RealFormula::And(std::move(priv))};
  return RealFormula::Or(std::move(ors));
}

measure::MeasureOptions RequestOptions(int d) {
  (void)d;
  measure::MeasureOptions opts;
  opts.method = measure::Method::kFpras;
  opts.epsilon = kEpsilon;
  // One service-wide seed policy (the MeasureOptions default): repeated
  // candidates hit the result memo, and the shared cone is deduplicated
  // across *distinct* requests through the body cache — estimates only
  // share between requests with equal seeds, by design.
  return opts;
}

std::vector<service::MeasureRequest> MakeBatch() {
  std::vector<service::MeasureRequest> reqs;
  reqs.reserve(kBatch);
  for (int r = 0; r < kBatch; ++r) {
    int d = r % kDistinct;
    reqs.push_back(
        service::MeasureRequest::Nu(Workload(d), RequestOptions(d)));
  }
  return reqs;
}

struct LegResult {
  double wall_ms = 0.0;
  double value_sum = 0.0;
  double hit_rate = 0.0;
  double body_hit_rate = 0.0;
};

LegResult RunSequential() {
  LegResult leg;
  util::WallTimer timer;
  for (int r = 0; r < kBatch; ++r) {
    int d = r % kDistinct;
    auto result = measure::ComputeNu(Workload(d), RequestOptions(d));
    if (!result.ok()) {
      std::fprintf(stderr, "sequential request failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    leg.value_sum += result->value;
  }
  leg.wall_ms = timer.ElapsedMillis();
  return leg;
}

LegResult RunService(service::MeasureService& svc) {
  LegResult leg;
  auto outcome = svc.RunBatch(MakeBatch());
  for (const auto& result : outcome.results) {
    if (!result.ok()) {
      std::fprintf(stderr, "service request failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    leg.value_sum += result->value;
  }
  leg.wall_ms = outcome.stats.wall_ms;
  int64_t lookups = outcome.stats.requests;
  leg.hit_rate = lookups > 0 ? static_cast<double>(
                                   outcome.stats.request_cache_hits) /
                                   static_cast<double>(lookups)
                             : 0.0;
  // Fraction of unique-body estimations the executed requests served from
  // the estimate cache (cross-request geometry sharing).
  int64_t unique = outcome.stats.unique_bodies;
  leg.body_hit_rate =
      unique > 0 ? static_cast<double>(outcome.stats.body_cache_hits) /
                       static_cast<double>(unique)
                 : 0.0;
  return leg;
}

// Per-span cost with recording enabled, measured directly: construct /
// destroy plus two annotations — the instrumentation's worst case. Probe
// spans are cleared afterwards, so call this before any real work records.
double MeasureSpanCostMs() {
  const bool was_on = obs::TracingEnabled();
  if (!was_on) obs::EnableTracing();
  constexpr int kProbe = 50000;
  util::WallTimer timer;
  for (int i = 0; i < kProbe; ++i) {
    obs::Span span("bench.overhead_probe");
    span.Annotate("a", 1.0);
    span.Annotate("b", "x");
  }
  double per_span_ms = timer.ElapsedMillis() / kProbe;
  if (!was_on) obs::DisableTracing();
  obs::ClearTraces();
  return per_span_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonFlagPath(argc, argv);
  const bench::ObsFlags obs_flags = bench::ParseObsFlags(argc, argv);
  const double per_span_ms = MeasureSpanCostMs();
  const bool quick = bench::QuickFlag(argc, argv);
  const int rounds = quick ? 1 : 3;

  // Interleaved A/B rounds: host timing noise hits both legs equally.
  double seq_ms = 0.0, svc_ms = 0.0, rep_ms = 0.0;
  double seq_sum = 0.0, svc_sum = 0.0, rep_sum = 0.0;
  double svc_hits = 0.0, rep_hits = 0.0, svc_body_hits = 0.0;
  for (int round = 0; round < rounds; ++round) {
    LegResult seq = RunSequential();
    service::MeasureService svc;  // fresh caches per round
    LegResult first = RunService(svc);
    LegResult repeat = RunService(svc);
    if (first.value_sum != seq.value_sum ||
        repeat.value_sum != seq.value_sum) {
      std::fprintf(stderr,
                   "FATAL: service results diverge from sequential "
                   "(seq %.17g, service %.17g, repeat %.17g)\n",
                   seq.value_sum, first.value_sum, repeat.value_sum);
      return 1;
    }
    seq_ms += seq.wall_ms;
    svc_ms += first.wall_ms;
    rep_ms += repeat.wall_ms;
    seq_sum = seq.value_sum;
    svc_sum = first.value_sum;
    rep_sum = repeat.value_sum;
    svc_hits += first.hit_rate;
    rep_hits += repeat.hit_rate;
    svc_body_hits += first.body_hit_rate;
  }
  seq_ms /= rounds;
  svc_ms /= rounds;
  rep_ms /= rounds;

  // Tracing contract leg: the same batch with span recording on must be
  // bit-identical to the untraced legs, and the derived overhead (per-span
  // cost × spans recorded) must fit the 2% budget.
  const bool tracing_already_on = obs::TracingEnabled();
  if (!tracing_already_on) obs::EnableTracing();
  const size_t spans_before = obs::CollectSpans().size();
  service::MeasureService traced_svc;  // fresh caches, like each round
  LegResult traced = RunService(traced_svc);
  const size_t spans_recorded = obs::CollectSpans().size() - spans_before;
  if (!tracing_already_on) obs::DisableTracing();
  if (traced.value_sum != seq_sum) {
    std::fprintf(stderr,
                 "FATAL: traced batch diverges from untraced "
                 "(untraced %.17g, traced %.17g)\n",
                 seq_sum, traced.value_sum);
    return 1;
  }
  if (spans_recorded == 0) {
    std::fprintf(stderr, "FATAL: traced batch recorded no spans\n");
    return 1;
  }
  const double overhead_ms = per_span_ms * static_cast<double>(spans_recorded);
  const double budget_ms = 0.02 * svc_ms;
  if (overhead_ms > budget_ms) {
    std::fprintf(stderr,
                 "FATAL: tracing overhead %.3f ms exceeds 2%% budget %.3f ms "
                 "(%zu spans at %.0f ns each)\n",
                 overhead_ms, budget_ms, spans_recorded, per_span_ms * 1e6);
    return 1;
  }
  double svc_hit_rate = svc_hits / rounds;
  double rep_hit_rate = rep_hits / rounds;
  double svc_body_hit_rate = svc_body_hits / rounds;

  auto req_per_sec = [](double ms) { return kBatch / (ms / 1e3); };
  std::printf("%-22s %10s %12s %10s\n", "leg", "wall_ms", "req/s",
              "hit_rate");
  std::printf("%-22s %10.1f %12.1f %10s\n", "sequential_batch64", seq_ms,
              req_per_sec(seq_ms), "-");
  std::printf("%-22s %10.1f %12.1f %10.2f\n", "service_batch64", svc_ms,
              req_per_sec(svc_ms), svc_hit_rate);
  std::printf("%-22s %10.1f %12.1f %10.2f\n", "service_repeat64", rep_ms,
              req_per_sec(rep_ms), rep_hit_rate);
  std::printf(
      "body-cache hit rate (first batch): %.2f\n"
      "service speedup over sequential: %.2fx (repeat: %.2fx)\n",
      svc_body_hit_rate, seq_ms / svc_ms, seq_ms / rep_ms);
  std::printf(
      "tracing: %zu spans/batch, %.0f ns/span, derived overhead %.3f ms "
      "(budget %.3f ms, traced/untraced wall %.2fx), bit-identical: yes\n",
      spans_recorded, per_span_ms * 1e6, overhead_ms, budget_ms,
      traced.wall_ms / svc_ms);

  bench::BenchJson json("service");
  json.Add({"sequential_batch64", 1, seq_ms, req_per_sec(seq_ms), seq_sum});
  json.Add({"service_batch64", 1, svc_ms, req_per_sec(svc_ms), svc_sum});
  json.Add({"service_repeat64", 1, rep_ms, req_per_sec(rep_ms), rep_sum});
  json.Add({"service_batch64_hit_rate", 1, svc_ms, 0.0, svc_hit_rate});
  json.Add({"service_repeat64_hit_rate", 1, rep_ms, 0.0, rep_hit_rate});
  json.Add({"service_batch64_body_hit_rate", 1, svc_ms, 0.0,
            svc_body_hit_rate});
  json.Add({"service_traced_batch64", 1, traced.wall_ms,
            req_per_sec(traced.wall_ms), traced.value_sum});
  json.Add({"service_tracing_overhead_ms", 1, traced.wall_ms, 0.0,
            overhead_ms});
  if (!json.WriteTo(json_path)) return 1;
  if (!bench::WriteObsOutputs(obs_flags)) return 1;
  return 0;
}
