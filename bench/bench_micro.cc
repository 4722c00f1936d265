// Micro-benchmarks of the library's hot kernels (google-benchmark):
// direction sampling, asymptotic atom evaluation, polynomial restriction,
// the AFPRAS, the order-exact enumeration, the batched hit-and-run kernel,
// and the FPRAS on a two-cone union (the one timer of its Karp–Luby stage).

#include <vector>

#include <benchmark/benchmark.h>

#include "src/constraints/real_formula.h"
#include "src/convex/batch_sampler.h"
#include "src/convex/body.h"
#include "src/geom/geometry.h"
#include "src/measure/afpras.h"
#include "src/measure/fpras.h"
#include "src/measure/nu_exact.h"
#include "src/poly/polynomial.h"
#include "src/util/rng.h"

namespace {

using mudb::constraints::CmpOp;
using mudb::constraints::RealFormula;
using mudb::poly::Polynomial;

// A random cone: `atoms` halfspaces through the origin in n variables.
RealFormula MakeConeFormula(int n, int atoms, mudb::util::Rng& rng) {
  std::vector<RealFormula> parts;
  for (int i = 0; i < atoms; ++i) {
    Polynomial p;
    for (int v = 0; v < n; ++v) {
      p = p + Polynomial::Constant(rng.Uniform(-1, 1)) *
                  Polynomial::Variable(v);
    }
    parts.push_back(RealFormula::Cmp(p, CmpOp::kLe));
  }
  return RealFormula::And(std::move(parts));
}

RealFormula MakeConeFormula(int n, int atoms) {
  mudb::util::Rng rng(n * 97 + atoms);
  return MakeConeFormula(n, atoms, rng);
}

// The kernel body every FPRAS chain walks: a random cone of n halfspaces
// through the origin, the unit ball, and one annealing-style inner ball.
mudb::convex::ConvexBody MakeKernelBody(int n) {
  mudb::util::Rng rng(7 + n);
  mudb::convex::ConvexBody body(n);
  for (int i = 0; i < n; ++i) {
    mudb::geom::Vec a(n);
    for (int j = 0; j < n; ++j) a[j] = rng.Uniform(-1, 1);
    // Keep the negative diagonal so the origin stays interior-adjacent.
    if (a[i] > 0) a[i] = -a[i];
    body.AddHalfspace(a, 0.0);
  }
  body.AddBall(mudb::geom::Vec(n, 0.0), 1.0);
  body.AddBall(mudb::geom::Vec(n, 0.0), 0.7);
  return body;
}

void BM_SampleUnitSphere(benchmark::State& state) {
  mudb::util::Rng rng(1);
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mudb::geom::SampleUnitSphere(n, rng));
  }
}
BENCHMARK(BM_SampleUnitSphere)->Arg(2)->Arg(8)->Arg(64);

void BM_AsymptoticTruth(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RealFormula f = MakeConeFormula(n, 2 * n);
  mudb::util::Rng rng(2);
  mudb::geom::Vec dir = mudb::geom::SampleUnitSphere(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.AsymptoticTruth(dir));
  }
}
BENCHMARK(BM_AsymptoticTruth)->Arg(2)->Arg(8)->Arg(32);

void BM_RestrictToDirection(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  mudb::util::Rng rng(3);
  Polynomial p;
  for (int v = 0; v < n; ++v) {
    p = p + Polynomial::Constant(rng.Uniform(-1, 1)) *
                Polynomial::Variable(v) * Polynomial::Variable((v + 1) % n);
  }
  mudb::geom::Vec dir = mudb::geom::SampleUnitSphere(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.RestrictToDirection(dir));
  }
}
BENCHMARK(BM_RestrictToDirection)->Arg(4)->Arg(16);

void BM_AfprasFullRun(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RealFormula f = MakeConeFormula(n, n);
  mudb::measure::AfprasOptions opts;
  opts.epsilon = 0.05;
  for (auto _ : state) {
    mudb::util::Rng rng(4);
    auto r = mudb::measure::Afpras(f, opts, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AfprasFullRun)->Arg(2)->Arg(6)->Arg(12);

void BM_NuExactOrder(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  std::vector<RealFormula> parts;
  for (int i = 0; i + 1 < k; ++i) {
    parts.push_back(RealFormula::Cmp(
        Polynomial::Variable(i) - Polynomial::Variable(i + 1), CmpOp::kLt));
  }
  RealFormula f = RealFormula::And(std::move(parts));
  for (auto _ : state) {
    auto r = mudb::measure::NuExactOrder(f);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NuExactOrder)->Arg(3)->Arg(5)->Arg(7);

// K lockstep chains on the kernel body; items are lane-steps.
void BM_BatchedHitAndRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  mudb::convex::ConvexBody body = MakeKernelBody(n);
  mudb::convex::BatchedHitAndRunSampler sampler(&body, lanes);
  std::vector<mudb::util::Rng> rngs;
  for (int l = 0; l < lanes; ++l) {
    rngs.emplace_back(42 + l);
    sampler.ResetLane(l, mudb::geom::Vec(n, 0.0));
  }
  constexpr int kSteps = 1000;
  for (auto _ : state) {
    sampler.WalkAll(kSteps, rngs.data());
    benchmark::ClobberMemory();
  }
  mudb::geom::Vec lane0;
  sampler.GetCurrent(0, &lane0);
  benchmark::DoNotOptimize(lane0);
  state.SetItemsProcessed(state.iterations() * lanes * kSteps);
}
BENCHMARK(BM_BatchedHitAndRun)->ArgsProduct({{2, 5, 8}, {1, 16}});

// The whole FPRAS at ε = 0.1 on a disjunction of two random n-halfspace
// cones: LP seeding, annealed volumes, and Karp–Luby over the union, which
// no mudb-bench workload reaches. Items are hit-and-run steps.
void BM_FprasConeDnf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mudb::util::Rng cone_rng(7 + n);
  std::vector<RealFormula> cones;
  cones.push_back(MakeConeFormula(n, n, cone_rng));
  cones.push_back(MakeConeFormula(n, n, cone_rng));
  RealFormula f = RealFormula::Or(std::move(cones));
  mudb::measure::FprasOptions opts;
  opts.epsilon = 0.1;
  int64_t steps = 0;
  for (auto _ : state) {
    mudb::util::Rng rng(n);
    auto r = mudb::measure::FprasConjunctive(f, opts, rng);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    steps += r->sampling_steps;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_FprasConeDnf)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
