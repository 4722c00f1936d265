#include "src/convex/volume.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/convex/batch_sampler.h"
#include "src/obs/trace.h"

namespace mudb::convex {

namespace {

// Chunk grid for one phase's sample budget: enough chunks to occupy a few
// workers, each large enough that the 10·walk burn-in of its chain stays a
// small fraction of its sampling work. A function of the budget only, so the
// grid — and with it the estimate — is independent of the thread count.
int NumChunks(int per_phase) {
  return std::clamp(per_phase / 256, 1, 64);
}

}  // namespace

VolumeEstimate EstimateVolume(const ConvexBody& body, const InnerBall& inner,
                              double outer_radius_bound,
                              const VolumeOptions& options, util::Rng& rng) {
  const int n = body.dim();
  MUDB_CHECK(n >= 1);
  MUDB_CHECK(inner.radius > 0);
  MUDB_CHECK(outer_radius_bound > inner.radius);

  // Annealing radii r_i = r0 · 2^{i/n} until the ball covers the body.
  std::vector<double> radii{inner.radius};
  double growth = std::pow(2.0, 1.0 / n);
  while (radii.back() < outer_radius_bound) {
    radii.push_back(radii.back() * growth);
  }
  const int phases = static_cast<int>(radii.size()) - 1;

  VolumeEstimate est;
  est.phases = phases;
  est.volume = geom::BallVolume(n, inner.radius);
  if (phases == 0) return est;

  const int walk = 4 * n;
  // Relative variance of the product of `phases` ratio estimates, each a
  // Bernoulli mean >= 1/2 from m samples, is about phases/m; pick
  // m ≈ 8·phases/ε² and clamp to sane bounds.
  const int per_phase = static_cast<int>(std::clamp(
      8.0 * phases / (options.epsilon * options.epsilon), 200.0, 200000.0));

  const int chunks = NumChunks(per_phase);
  // Chunks route through the batched kernel in fixed power-of-two groups:
  // chunk c is always lane (c − first) of its group's kernel and draws only
  // from substream Split(c), so inside[c] — and the phase ratio — is
  // bit-identical to a scalar sampler walking chunk c alone, at any group
  // width and any thread count.
  const std::vector<ChainGroup> groups = PartitionChainGrid(chunks);
  std::vector<int> inside(chunks);
  util::Rng base = rng.Fork();
  // One phase body for the whole schedule: only the annealing ball's radius
  // changes between phases, so copying the constraint system per phase is
  // pure overhead.
  ConvexBody phase_body = body;
  phase_body.AddBall(inner.center, radii[phases]);
  const int anneal_ball = phase_body.num_balls() - 1;
  for (int i = 1; i <= phases; ++i) {
    // One span per annealing phase (phase-level only — never inside the
    // chain walks).
    obs::Span phase_span("volume.anneal_phase");
    if (phase_span.recording()) {
      phase_span.Annotate("phase", static_cast<double>(i));
      phase_span.Annotate("samples", static_cast<double>(per_phase));
    }
    phase_body.SetBallRadius(anneal_ball, radii[i]);
    double prev_r2 = radii[i - 1] * radii[i - 1];
    util::Rng phase_rng = base.Split(i);
    auto run_group = [&](int64_t g) {
      const int first = groups[g].first;
      const int width = groups[g].width;
      // Every chunk in the group samples its share of the phase budget with
      // its own chain lane, started at the inner-ball center (interior of
      // every phase body). All lanes share one burn-in/walk schedule —
      // except that the first (per_phase % chunks) chunks take one extra
      // sample, a prefix of the lanes, walked as a subset at the end.
      BatchedHitAndRunSampler sampler(&phase_body, width);
      std::vector<util::Rng> lane_rng;
      lane_rng.reserve(width);
      std::vector<util::Rng*> rngs(width);
      std::vector<int> lanes(width);
      for (int l = 0; l < width; ++l) {
        lane_rng.emplace_back(phase_rng.Split(first + l));
        rngs[l] = &lane_rng[l];
        lanes[l] = l;
        sampler.ResetLane(l, inner.center);
      }
      // Burn-in.
      sampler.WalkLanes(10 * walk, lanes.data(), width, rngs.data());
      std::vector<int> hits(width, 0);
      geom::Vec x;
      auto tally = [&](int l) {
        sampler.GetCurrent(l, &x);
        double d2 = 0.0;
        for (int j = 0; j < n; ++j) {
          double diff = x[j] - inner.center[j];
          d2 += diff * diff;
        }
        if (d2 <= prev_r2) ++hits[l];
      };
      const int base_samples = per_phase / chunks;
      const int extra = std::clamp(per_phase % chunks - first, 0, width);
      for (int s = 0; s < base_samples; ++s) {
        sampler.WalkLanes(walk, lanes.data(), width, rngs.data());
        for (int l = 0; l < width; ++l) tally(l);
      }
      if (extra > 0) {
        sampler.WalkLanes(walk, lanes.data(), extra, rngs.data());
        for (int l = 0; l < extra; ++l) tally(l);
      }
      for (int l = 0; l < width; ++l) inside[first + l] = hits[l];
    };
    util::ThreadPool::RunGrid(options.pool, static_cast<int>(groups.size()),
                              run_group);
    est.steps += static_cast<int64_t>(chunks) * 10 * walk +
                 static_cast<int64_t>(per_phase) * walk;
    int total_inside = 0;
    for (int c = 0; c < chunks; ++c) total_inside += inside[c];
    double ratio = static_cast<double>(total_inside) / per_phase;
    // The true ratio is >= 2^{-1} by construction; guard the estimate away
    // from 0 so a pathological chain cannot blow up the product.
    ratio = std::max(ratio, 1e-3);
    est.volume /= ratio;
  }
  return est;
}

}  // namespace mudb::convex
