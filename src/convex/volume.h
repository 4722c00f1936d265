// Annealed Monte-Carlo volume estimation for convex bodies.
//
// The classic multi-phase scheme (Lovász–Vempala style): given an inner ball
// B(z0, r0) ⊆ K and an outer radius bound, define K_i = K ∩ B(z0, r0·2^{i/n}).
// Then Vol(K_0) = Vol(B(z0, r0)) is known exactly, each consecutive ratio
// Vol(K_{i-1}) / Vol(K_i) lies in [1/2, 1] and is estimated by hit-and-run
// sampling from K_i, and Vol(K) is the telescoping product. This provides the
// per-body volume oracle required by the union FPRAS of Thm. 7.1 (standing in
// for the oracles assumed by Bringmann–Friedrich [9]).
//
// Each phase's sample budget is split across a fixed grid of independent
// hit-and-run chains (grid size a function of the budget alone), chain
// (phase, chunk) drawing from the substream Split(phase).Split(chunk) of the
// forked call rng. The chains walk in power-of-two lane groups through the
// vectorized K-chain kernel (convex/batch_sampler.h, grouped by
// PartitionChainGrid — also a pure function of the grid), and the groups of
// one phase run in parallel on the optional pool. Every lane is
// bit-identical to a lone chain walking its substream, so the estimate
// is bit-identical for any group width and any pool size — see
// thread_pool.h.

#ifndef MUDB_SRC_CONVEX_VOLUME_H_
#define MUDB_SRC_CONVEX_VOLUME_H_

#include "src/convex/body.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::convex {

struct VolumeOptions {
  /// Target relative accuracy of the estimate. Each annealing phase keeps
  /// 8·phases/ε² samples (clamped to [200, 200000]), one every 4·dim
  /// hit-and-run steps.
  double epsilon = 0.1;
  /// Optional worker pool for the per-phase chain groups; nullptr runs them
  /// inline. Any pool size yields the identical estimate.
  util::ThreadPool* pool = nullptr;
};

struct VolumeEstimate {
  double volume = 0.0;
  /// Number of annealing phases used.
  int phases = 0;
  /// Total hit-and-run steps taken.
  int64_t steps = 0;
};

/// Estimates Vol(body). `inner` must satisfy B(inner) ⊆ body, and body must
/// be contained in B(inner.center, outer_radius_bound). Advances `rng` by
/// one draw (Rng::Fork) and samples from substreams of the forked child:
/// repeated calls with one Rng see fresh chains, while a fresh same-seeded
/// Rng reproduces the estimate bit-exactly, independent of options.pool.
VolumeEstimate EstimateVolume(const ConvexBody& body, const InnerBall& inner,
                              double outer_radius_bound,
                              const VolumeOptions& options, util::Rng& rng);

}  // namespace mudb::convex

#endif  // MUDB_SRC_CONVEX_VOLUME_H_
