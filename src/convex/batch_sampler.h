// K-chain hit-and-run in SoA lockstep: the vectorized multi-chain kernel.
//
// Every volume estimate runs many independent hit-and-run chains over the
// *same* flat constraint matrix A, so one lockstep step over K chains turns
// the per-step A·d products and chord min/max reductions into m×K
// matrix–panel operations: the row of A is loaded once and applied to K
// contiguous direction entries (lane-minor layout, auto-vectorizable), with
// far better cache reuse of A than K scalar chains walking it one at a time.
//
// Determinism is the hard constraint, not a side effect. Lane l is a fixed
// chain slot: it draws every deviate from its own rng (the chain's
// substream), carries its own incremental A·x / ball-distance caches with
// a fixed exact-refresh schedule (kSamplerRefreshInterval), and performs
// per step exactly the floating-point operations, in exactly the order, of
// one scalar hit-and-run step — so every lane's trajectory is bit-identical
// to a single chain walking (body, start, substream), for any K and any
// lane→chain mapping. The estimator chain grids — the annealed phases of
// convex/volume.cc and the Karp–Luby loop of volume/union_volume.cc — route
// through this kernel via PartitionChainGrid without perturbing any
// estimate. `sampler_kernel_test` / `batch_sampler_test` prove lane ≡
// scalar at every dense-specialized K ∈ {1, 2, 4, 8, 16} and on listed lane
// subsets against the scalar reference sampler in tests/scalar_sampler.h.

#ifndef MUDB_SRC_CONVEX_BATCH_SAMPLER_H_
#define MUDB_SRC_CONVEX_BATCH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "src/convex/body.h"
#include "src/geom/geometry.h"
#include "src/util/rng.h"

namespace mudb::convex {

/// Exact-recompute cadence of each lane's incremental caches. Per-step
/// drift is a few ulps, so over an interval the accumulated error stays
/// orders of magnitude below the 1e-12 containment tolerance, while the
/// amortized cost of the O(m·n) refresh is negligible. The schedule depends
/// only on each chain's own step count — part of the determinism contract
/// (chains stay pure functions of (body, start, rng stream)).
inline constexpr int kSamplerRefreshInterval = 1024;

/// Most lanes one sampler holds, and the widest dense panel the step body
/// specializes (Walk<16> is the 512-bit sweet spot on AVX-512 hosts; wider
/// panels spill registers). Per-walker step scratch is a stack array of
/// this size.
inline constexpr int kBatchMaxLanes = 16;

/// One contiguous slice of a chain grid: chains [first, first + width).
struct ChainGroup {
  int first;
  int width;
};

/// Slices the chain grid [0, chains) into contiguous groups whose widths are
/// the greedy power-of-two decomposition capped at kBatchMaxLanes (e.g. 7
/// chains → widths 4, 2, 1), so every group hits a dense Walk<K> dispatch
/// when all its lanes walk together. A pure function of `chains`:
/// estimator grids built on it — and the estimates reduced over them — are
/// independent of thread count, like the chunk grids they partition.
std::vector<ChainGroup> PartitionChainGrid(int chains);

/// K independent hit-and-run chains over one shared body, stepped in
/// lockstep. State is lane-minor SoA: positions, directions, and the cached
/// constraint products are n×K / m×K panels with lane l at column l. The
/// body must outlive the sampler and must not gain constraints while any
/// lane walks on it (SetBallRadius between walks is fine: ResetLane
/// resyncs).
class BatchedHitAndRunSampler {
 public:
  /// A kernel with `lanes` ∈ [1, kBatchMaxLanes] chain slots, all
  /// uninitialized. ResetLane each slot (at an interior point) before
  /// walking it.
  BatchedHitAndRunSampler(const ConvexBody* body, int lanes);

  int lanes() const { return lanes_; }
  const ConvexBody* body() const { return body_; }

  /// (Re)starts lane `lane` at `start`, which must lie inside the body, and
  /// recomputes that lane's caches exactly.
  void ResetLane(int lane, const geom::Vec& start);

  /// Whether ResetLane has been called on `lane` (lazy per-lane init: the
  /// Karp–Luby loop only pays burn-in for chains a chunk actually picks).
  bool lane_initialized(int lane) const { return initialized_[lane] != 0; }

  /// Copies lane `lane`'s current position into `out` (resized to dim).
  void GetCurrent(int lane, geom::Vec* out) const;

  /// Lockstep walk: every listed lane takes `steps` steps, the idx-th listed
  /// lane drawing from rngs[idx]. Lanes must be initialized and listed at
  /// most once; unlisted lanes are untouched (no state, no rng). The dense
  /// case (lane_list = 0..lanes-1 in order, lanes ∈ {1, 2, 4, 8, 16}) runs
  /// the step body on the unrolled K-wide panel; any other list runs the
  /// same body over the listed lanes.
  void WalkLanes(int steps, const int* lane_list, int count,
                 util::Rng* const* rngs);

  /// Dense convenience: all lanes walk `steps` steps, lane l drawing from
  /// rngs[l] (a contiguous array of `lanes()` engines).
  void WalkAll(int steps, util::Rng* rngs);

 private:
  /// The one step body, `steps` lockstep steps. K ∈ {1, 2, 4, 8, 16} walks
  /// the dense K-lane panel with compile-time lane loops that unroll into
  /// K-wide panel operations; K = 0 walks the `count` listed lanes.
  template <int K>
  void Walk(int steps, const int* lane_list, int count,
            util::Rng* const* rngs);
  /// Exact recompute of one lane's cached products (one panel column).
  void RefreshLane(int lane);

  const ConvexBody* body_;
  int lanes_;
  // Lane-minor SoA panels: entry (row j, lane l) lives at [j*lanes_ + l].
  std::vector<double> x_;           // n×K positions
  std::vector<double> d_;           // n×K directions
  std::vector<double> ax_;          // m×K cached A·x
  std::vector<double> ad_;          // m×K per-step A·d
  std::vector<double> ball_bq_;     // k×K per-step (x−c)·d
  std::vector<double> ball_dist2_;  // k×K cached ||x−c||²
  std::vector<uint8_t> initialized_;
  std::vector<int> steps_since_refresh_;
};

}  // namespace mudb::convex

#endif  // MUDB_SRC_CONVEX_BATCH_SAMPLER_H_
