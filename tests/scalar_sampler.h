// Scalar hit-and-run: a Markov chain whose stationary distribution is
// uniform over a convex body, one chain at a time. It is the reference
// oracle of the sampler suites: every lane of the batched K-chain kernel
// (src/convex/batch_sampler.h), which all estimators walk, must stay
// bit-identical to this sampler step for step.
//
// The step kernel is allocation-free and touches each constraint once. The
// sampler maintains ax = A·x (one entry per halfspace) and ||x − c_k||² (one
// per ball) incrementally: a step computes A·d fused with the chord interval,
// the move is ax += t·(A·d) in O(m), and the post-step containment guard
// compares the cached products against b instead of re-scanning the
// constraint matrix. Caches are recomputed from scratch every
// kSamplerRefreshInterval steps, the batched kernel's schedule, so a chain
// is a pure function of (body, start, rng stream).

#ifndef MUDB_TESTS_SCALAR_SAMPLER_H_
#define MUDB_TESTS_SCALAR_SAMPLER_H_

#include <vector>

#include "src/convex/batch_sampler.h"
#include "src/convex/body.h"
#include "src/geom/geometry.h"
#include "src/util/rng.h"

namespace mudb::convex {

/// Hit-and-run sampler over a ConvexBody. The chain must start at an interior
/// point (e.g. the center of an inner ball). The body must not gain
/// constraints while a sampler walks on it (SetBallRadius between walks is
/// fine: call set_current to resync).
class HitAndRunSampler {
 public:
  /// `body` must outlive the sampler; `start` must lie inside the body.
  HitAndRunSampler(const ConvexBody* body, geom::Vec start);

  /// One hit-and-run step: picks a uniform direction, intersects the chord,
  /// moves to a uniform point on it.
  void Step(util::Rng& rng);

  /// Runs `n` steps.
  void Walk(int n, util::Rng& rng);

  const geom::Vec& current() const { return x_; }
  void set_current(geom::Vec x);

 private:
  /// Recomputes the cached constraint products from x_ exactly.
  void RefreshProducts();
  /// x += t·d and the O(m + k) cache update that goes with it.
  void ApplyMove(double t);

  const ConvexBody* body_;
  geom::Vec x_;
  // Preallocated step scratch: direction, A·d, (x−c_k)·d.
  geom::Vec d_;
  std::vector<double> ad_;
  std::vector<double> ball_bq_;
  // Incrementally maintained products: A·x and ||x − c_k||².
  std::vector<double> ax_;
  std::vector<double> ball_dist2_;
  int steps_since_refresh_ = 0;
};

}  // namespace mudb::convex

#endif  // MUDB_TESTS_SCALAR_SAMPLER_H_
