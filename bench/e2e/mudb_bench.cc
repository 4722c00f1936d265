// mudb_bench: one mudb-bench workload per process (see README.md).
//
//   mudb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--smoke]
//
// A pass runs a fixed number of ops in a closed loop: the whole blocks of
// the workload's op stream that fill the pass at its nominal block time
// (workloads.h, PassOps). The count depends only on the workload and
// --seconds, never on how fast the machine ran.
// --trace 0: sets the workload up three times (the median is setup_s), then
//   runs one pass of --seconds, but of at least 100 ops, and reports the
//   end-to-end metrics: latency p50/p90 per op (SQL text -> final answer
//   set), throughput, set-up time and peak RSS.
// --trace 1: an untraced pass of half of --seconds, then a fresh set-up and
//   a traced pass of the same ops (obs::EnableTracing). Spans are collected
//   and cleared after every op and folded into per-layer self time; counts
//   come from public results. Reports the per-layer metrics, and fails if
//   the two passes' result fingerprints differ.
// --smoke uses tiny databases and 5 ops per pass.
//
// Every duration is reported at reference speed: mudb_bench times a fixed
// calibration loop between every two ops and around every set-up, and
// rescales each op and set-up to the speed at which that loop takes
// kCalibrationRefMs. Trace 0 also reports the wall-clock values, as extras.
//
// The last line of stdout is one JSON object: the workload's metrics (name,
// value, unit), attempted/failed op counts, the correctness verdict with
// every failed gate, and the per-op result digests. run.py reads it. Exits
// 0 when every gate passed, 3 when one failed, 2 on bad usage or set-up.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/e2e/layers.h"
#include "bench/e2e/workloads.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace {

using namespace mudb;  // NOLINT: bench brevity
using bench::Layer;
using bench::OpCounts;
using bench::OpOutcome;
using bench::OpTrace;
using bench::Workload;

constexpr int kSetups = 3;
// The end-to-end pass's floor: its p90 then has ten samples beyond it.
constexpr int64_t kMinTimedOps = 100;
constexpr int64_t kSmokeOps = 5;
constexpr double kMaxSeconds = 3600;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && (args->trace == 0 || args->trace == 1) &&
         args->seconds > 0 && args->seconds <= kMaxSeconds;
}

// Linear interpolation between order statistics; 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Reference speed ---------------------------------------------------------
//
// The benchmark runs on shared VMs whose speed swings by up to 1.7x, for
// seconds to minutes at a time, as neighbours load the host. Wall-clock
// medians of two runs a minute apart then differ by more than any useful
// bound. Such a slowdown stretches mudb's code and a fixed loop alike, so
// mudb_bench times a loop that calls nothing in mudb next to every op and
// set-up, and divides the slowdown out.

// The calibration loop's time on a 4-vCPU 2.1 GHz Xeon VM whose host is
// quiet. Durations are rescaled to the speed at which it takes this long.
constexpr double kCalibrationRefMs = 1.6;

volatile uint64_t calibration_sink = 0;

// Times the calibration loop: allocation, hash-map updates and arithmetic,
// like the work of an op, on a fixed input.
double CalibrationMs() {
  util::WallTimer timer;
  std::unordered_map<uint64_t, uint64_t> map;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  double sum = 0.0;
  for (int round = 0; round < 4; ++round) {
    map.clear();
    for (int i = 0; i < 8192; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      map[x & 0x3fff] += x;
      sum += std::sqrt(static_cast<double>(x & 1023));
    }
  }
  calibration_sink = map.size() + static_cast<uint64_t>(sum);
  return timer.ElapsedMillis();
}

// The factor that rescales a duration timed between two calibration runs
// to reference speed.
double ReferenceScale(double before_ms, double after_ms) {
  return 2 * kCalibrationRefMs / (before_ms + after_ms);
}

void Rescale(double scale, OpTrace* t) {
  for (double& ms : t->self_ms) ms *= scale;
  for (double* ms : {&t->op_ms, &t->parse_ms, &t->eval_ms, &t->service_call_ms,
                     &t->afpras_ms, &t->walk_ms}) {
    *ms *= scale;
  }
}

struct Pass {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Op latencies of the successful ops, at reference speed and as timed.
  std::vector<double> latency_ms;
  std::vector<double> wall_latency_ms;
  std::vector<util::Fingerprint128> digests;
  // Summed op time, failed ops included: at reference speed and as timed.
  double time_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> calibration_ms;
  OpCounts counts;
  // Traced passes only.
  std::vector<OpTrace> traces;
  int64_t dropped_spans = 0;
  int64_t evictions = 0;
};

// The closed loop: one client, op i+1 issued only after op i returned.
Pass RunPass(Workload& w, int64_t ops, bool traced,
             std::vector<std::string>* failures) {
  Pass pass;
  const int64_t evictions_before = w.body_cache_evictions();
  if (traced) {
    obs::ClearTraces();
    obs::EnableTracing();
  }
  double before = CalibrationMs();
  pass.calibration_ms.push_back(before);
  for (int64_t i = 0; i < ops; ++i) {
    util::WallTimer op;
    OpOutcome outcome;
    {
      obs::Span span("bench.op");
      outcome = w.RunOp(i);
    }
    const double ms = op.ElapsedMillis();
    const double after = CalibrationMs();
    pass.calibration_ms.push_back(after);
    const double scale = ReferenceScale(before, after);
    before = after;
    ++pass.attempted;
    pass.time_s += ms * scale / 1000;
    pass.wall_s += ms / 1000;
    pass.digests.push_back(outcome.digest);
    if (outcome.status.ok()) {
      pass.latency_ms.push_back(ms * scale);
      pass.wall_latency_ms.push_back(ms);
      pass.counts.Add(outcome.counts);
    } else {
      ++pass.failed;
      std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(i),
                   outcome.status.ToString().c_str());
    }
    if (traced) {
      std::vector<obs::SpanRecord> spans = obs::CollectSpans();
      pass.dropped_spans += obs::DroppedSpanCount();
      obs::ClearTraces();
      pass.traces.push_back(bench::FoldSpans(spans));
      Rescale(scale, &pass.traces.back());
    }
  }
  if (traced) obs::DisableTracing();
  pass.evictions = w.body_cache_evictions() - evictions_before;
  if (pass.dropped_spans > 0) {
    failures->push_back("tracing dropped " +
                        std::to_string(pass.dropped_spans) + " spans");
  }
  return pass;
}

// A fresh workload, set up; nullptr (after a note on stderr) on failure.
// `seconds` is the set-up's wall time, `scale` its reference-speed factor.
std::unique_ptr<Workload> SetUp(const Args& args, double* seconds,
                                double* scale) {
  bench::WorkloadConfig config;
  config.seed = args.seed;
  config.smoke = args.smoke;
  const double before = CalibrationMs();
  util::WallTimer timer;
  std::unique_ptr<Workload> w = bench::MakeWorkload(args.workload, config);
  util::Status status = w->Setup();
  *seconds = timer.ElapsedSeconds();
  *scale = ReferenceScale(before, CalibrationMs());
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return w;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(const util::Fingerprint128& fp) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

util::Fingerprint128 Combine(const std::vector<util::Fingerprint128>& ds) {
  util::FingerprintHasher h(ds.size());
  for (const util::Fingerprint128& d : ds) {
    h.Absorb(d.hi);
    h.Absorb(d.lo);
  }
  return h.Digest();
}

// A JSON string literal (the strings here are ASCII messages).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Non-finite values have no JSON form; they print as null.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEndMetrics(const Pass& pass,
                                    const std::vector<double>& setup_s) {
  return {
      {"latency_ms_p50", Percentile(pass.latency_ms, 0.5), "ms"},
      {"latency_ms_p90", Percentile(pass.latency_ms, 0.9), "ms"},
      {"ops_per_s",
       Ratio(static_cast<double>(pass.latency_ms.size()), pass.time_s), "1/s"},
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The end-to-end metrics as timed, and the calibration loop's median time.
std::vector<std::pair<std::string, double>> WallClockExtras(
    const Pass& pass, const std::vector<double>& wall_setup_s) {
  return {
      {"wall.latency_ms_p50", Percentile(pass.wall_latency_ms, 0.5)},
      {"wall.latency_ms_p90", Percentile(pass.wall_latency_ms, 0.9)},
      {"wall.ops_per_s",
       Ratio(static_cast<double>(pass.wall_latency_ms.size()), pass.wall_s)},
      {"wall.setup_s", Percentile(wall_setup_s, 0.5)},
      {"calibration_ms_p50", Percentile(pass.calibration_ms, 0.5)},
  };
}

std::vector<Metric> PerLayerMetrics(const Pass& untraced, const Pass& traced,
                                    const std::vector<double>& datagen_s) {
  const OpCounts& c = traced.counts;
  const double ops = static_cast<double>(traced.traces.size());
  std::vector<double> parse, eval, call;
  OpTrace sum;
  for (const OpTrace& t : traced.traces) {
    parse.push_back(t.parse_ms);
    eval.push_back(t.eval_ms);
    call.push_back(t.service_call_ms);
    for (int l = 0; l < bench::kNumLayers; ++l) sum.self_ms[l] += t.self_ms[l];
    sum.spans += t.spans;
    sum.op_ms += t.op_ms;
    sum.afpras_ms += t.afpras_ms;
    sum.walk_ms += t.walk_ms;
  }
  auto share = [&](Layer layer) {
    return Ratio(sum.self_ms[static_cast<int>(layer)], sum.op_ms);
  };
  auto per_op = [&](int64_t n) { return Ratio(static_cast<double>(n), ops); };
  auto frac = [](int64_t num, int64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double untraced_p50 = Percentile(untraced.latency_ms, 0.5);
  const double traced_p50 = Percentile(traced.latency_ms, 0.5);
  return {
      {"sql.parse_ms_p50", Percentile(parse, 0.5), "ms"},
      {"engine.eval_ms_p50", Percentile(eval, 0.5), "ms"},
      {"engine.self_share", share(Layer::kEngine), "frac"},
      {"engine.witnesses_per_op", per_op(c.witnesses), "count"},
      {"engine.witnesses_per_candidate",
       frac(c.candidate_witnesses, c.candidates), "count"},
      {"engine.candidates_per_op", per_op(c.candidates), "count"},
      {"engine.uncertain_frac", frac(c.uncertain, c.candidates), "frac"},
      {"datagen.s", Percentile(datagen_s, 0.5), "s"},
      {"model.apply_share", share(Layer::kModel), "frac"},
      {"measure.compute_self_share", share(Layer::kMeasure), "frac"},
      {"measure.afpras_self_share", share(Layer::kAfpras), "frac"},
      {"measure.afpras_samples_per_op", per_op(c.samples), "count"},
      {"measure.afpras_samples_per_s",
       Ratio(static_cast<double>(c.samples), sum.afpras_ms * 1e-3), "1/s"},
      {"measure.exact_frac", frac(c.exact_results, c.results), "frac"},
      {"fpras.build_bodies_self_share", share(Layer::kFprasBodies), "frac"},
      {"fpras.union_self_share", share(Layer::kFprasUnion), "frac"},
      {"fpras.bodies_per_op", per_op(c.bodies), "count"},
      {"fpras.unique_body_frac", frac(c.unique_bodies, c.bodies), "frac"},
      {"convex.anneal_self_share", share(Layer::kConvex), "frac"},
      {"convex.steps_per_op", per_op(c.steps), "count"},
      {"convex.steps_per_s",
       Ratio(static_cast<double>(c.steps), sum.walk_ms * 1e-3), "1/s"},
      {"volume.body_estimate_self_share", share(Layer::kVolumeBody), "frac"},
      {"volume.karp_luby_self_share", share(Layer::kKarpLuby), "frac"},
      {"service.call_ms_p50", Percentile(call, 0.5), "ms"},
      {"service.self_share", share(Layer::kService), "frac"},
      {"service.request_hit_rate", frac(c.request_hits, c.requests), "frac"},
      {"service.body_hit_rate", frac(c.body_hits, c.unique_bodies), "frac"},
      {"service.body_cache_evictions", static_cast<double>(traced.evictions),
       "count"},
      {"service.ranking.tiers_per_op", per_op(c.tiers), "count"},
      {"service.ranking.evaluations_per_op", per_op(c.evaluations), "count"},
      {"service.ranking.warm_hit_rate", frac(c.warm_hits, c.evaluations),
       "frac"},
      {"service.ranking.pruned_frac", frac(c.pruned, c.results), "frac"},
      {"service.ranking.invalidated_per_op", per_op(c.invalidated), "count"},
      {"bench.residual_share", share(Layer::kBench), "frac"},
      {"obs.trace_overhead_pct", (Ratio(traced_p50, untraced_p50) - 1) * 100,
       "%"},
      {"obs.spans_per_op", per_op(sum.spans), "count"},
      {"obs.dropped_spans", static_cast<double>(traced.dropped_spans),
       "count"},
  };
}

void PrintReport(const Args& args, const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, double>>& extras,
                 const std::vector<std::string>& failures, int64_t attempted,
                 int64_t failed, const Pass& reported) {
  std::string out = "{\"workload\": " + Quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + std::to_string(args.trace) +
                    ", \"correct\": " + (failures.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) +
           ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  out += "}, \"extras\": {";
  for (size_t i = 0; i < extras.size(); ++i) {
    out += (i ? ", " : "") + Quote(extras[i].first) + ": " +
           Number(extras[i].second);
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ", " : "") + Quote(failures[i]);
  }
  out += "], \"fingerprint\": " + Quote(Hex(Combine(reported.digests))) +
         ", \"op_digests\": [";
  for (size_t i = 0; i < reported.digests.size(); ++i) {
    out += (i ? ", " : "") + Quote(Hex(reported.digests[i]));
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mudb_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n");
    return 2;
  }
  const std::vector<bench::WorkloadSpec>& specs = bench::WorkloadSpecs();
  const auto spec =
      std::find_if(specs.begin(), specs.end(),
                   [&](const bench::WorkloadSpec& s) {
                     return args.workload == s.name;
                   });
  if (spec == specs.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  CalibrationMs();  // the first run also pays for faulting its memory in
  std::vector<std::string> failures;
  std::vector<double> setup_s, wall_setup_s, datagen_s;
  std::unique_ptr<Workload> w;
  auto set_up = [&] {
    w.reset();  // never hold two databases at once
    double seconds = 0.0, scale = 1.0;
    w = SetUp(args, &seconds, &scale);
    if (w == nullptr) return false;
    setup_s.push_back(seconds * scale);
    wall_setup_s.push_back(seconds);
    datagen_s.push_back(w->datagen_seconds() * scale);
    return true;
  };

  if (args.trace == 0) {
    for (int s = 0; s < kSetups; ++s) {
      if (!set_up()) return 2;
    }
    const int64_t ops =
        args.smoke ? kSmokeOps
                   : bench::PassOps(*spec, args.seconds, kMinTimedOps);
    Pass pass = RunPass(*w, ops, false, &failures);
    w->Verify(&failures);
    std::vector<std::pair<std::string, double>> extras = w->Extras();
    for (auto& extra : WallClockExtras(pass, wall_setup_s)) {
      extras.push_back(std::move(extra));
    }
    PrintReport(args, EndToEndMetrics(pass, setup_s), extras, failures,
                pass.attempted, pass.failed, pass);
    return failures.empty() ? 0 : 3;
  }

  if (!set_up()) return 2;
  const int64_t ops =
      args.smoke ? kSmokeOps : bench::PassOps(*spec, args.seconds / 2, 1);
  Pass untraced = RunPass(*w, ops, false, &failures);
  w->Verify(&failures);
  const std::vector<std::pair<std::string, double>> extras = w->Extras();
  if (!set_up()) return 2;
  Pass traced = RunPass(*w, ops, true, &failures);
  if (traced.digests != untraced.digests) {
    failures.push_back("traced pass results differ from the untraced pass");
  }
  PrintReport(args, PerLayerMetrics(untraced, traced, datagen_s), extras,
              failures, untraced.attempted + traced.attempted,
              untraced.failed + traced.failed, traced);
  return failures.empty() ? 0 : 3;
}
