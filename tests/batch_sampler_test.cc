// The batched K-chain kernel against the scalar sampler: every lane of
// BatchedHitAndRunSampler must be bit-identical to a scalar HitAndRunSampler
// walking the same (body, start, rng substream), for any K, any lane subset
// schedule, and across the fixed 1024-step cache-refresh boundary, on both
// the dense panel and the listed-lane path of the one step body — the
// contract that lets the estimator chain grids route through the batched
// kernel without perturbing any estimate.

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/convex/batch_sampler.h"
#include "src/convex/body.h"
#include "src/geom/geometry.h"
#include "src/util/rng.h"
#include "tests/scalar_sampler.h"

namespace mudb::convex {
namespace {

// A random bounded body with a known interior point: `inside` is interior by
// construction (positive margin against every constraint).
struct RandomBody {
  ConvexBody body;
  geom::Vec inside;
};

RandomBody MakeRandomBody(int dim, util::Rng& rng) {
  RandomBody out{ConvexBody(dim), geom::Vec(dim)};
  for (int j = 0; j < dim; ++j) out.inside[j] = rng.Uniform(-0.3, 0.3);
  int num_halfspaces = static_cast<int>(rng.UniformInt(0, 2 * dim + 2));
  for (int i = 0; i < num_halfspaces; ++i) {
    geom::Vec a(dim);
    for (int j = 0; j < dim; ++j) a[j] = rng.Uniform(-1, 1);
    double margin = rng.Uniform(0.05, 1.0);
    out.body.AddHalfspace(a, geom::Dot(a, out.inside) + margin);
  }
  // At least one ball so every chord is bounded.
  int num_balls = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < num_balls; ++i) {
    geom::Vec c(dim);
    for (int j = 0; j < dim; ++j) c[j] = rng.Uniform(-0.4, 0.4);
    geom::Vec diff = geom::AddScaled(out.inside, -1.0, c);
    double radius = geom::Norm(diff) + rng.Uniform(0.3, 1.5);
    out.body.AddBall(c, radius);
  }
  return out;
}

// Walks K batched lanes and K scalar chains on the same substreams and
// asserts positions agree after every block. Block boundaries are chosen so
// comparisons straddle the kSamplerRefreshInterval exact-refresh schedule.
void ExpectLanesMatchScalar(const RandomBody& rb, int lanes, uint64_t seed) {
  BatchedHitAndRunSampler batched(&rb.body, lanes);
  std::vector<util::Rng> lane_rngs;
  std::vector<util::Rng> scalar_rngs;
  std::vector<HitAndRunSampler> scalars;
  util::Rng base(seed);
  for (int l = 0; l < lanes; ++l) {
    lane_rngs.push_back(base.Split(l));
    scalar_rngs.push_back(base.Split(l));
    scalars.emplace_back(&rb.body, rb.inside);
    batched.ResetLane(l, rb.inside);
  }
  // 5 × 300 = 1500 steps: crosses the 1024-step refresh boundary mid-walk.
  geom::Vec got;
  for (int block = 0; block < 5; ++block) {
    batched.WalkAll(300, lane_rngs.data());
    for (int l = 0; l < lanes; ++l) {
      scalars[l].Walk(300, scalar_rngs[l]);
      batched.GetCurrent(l, &got);
      ASSERT_EQ(got, scalars[l].current())
          << "lanes " << lanes << " lane " << l << " block " << block;
    }
  }
  // The rng streams must also be in lockstep (same number of draws), or the
  // position match above would diverge on the very next use.
  for (int l = 0; l < lanes; ++l) {
    ASSERT_EQ(lane_rngs[l].Uniform01(), scalar_rngs[l].Uniform01());
  }
}

TEST(BatchSamplerTest, LanesBitIdenticalToScalarAcrossK) {
  // 3 and 7 lanes have no dense specialization: WalkAll walks them as a
  // listed lane set.
  util::Rng body_rng(1234);
  for (int dim : {1, 2, 3, 5}) {
    RandomBody rb = MakeRandomBody(dim, body_rng);
    for (int lanes : {1, 2, 3, 4, 7, 8, 16}) {
      ExpectLanesMatchScalar(rb, lanes, 9000 + dim);
      if (HasFatalFailure()) return;
    }
  }
}

using Schedule = std::vector<std::pair<std::vector<int>, int>>;

// Walks `schedule` — (lane list, steps) pairs — on a `lanes`-lane sampler
// and asserts after every entry that each lane matches a scalar chain that
// walked the same per-lane total on the same substream.
void ExpectScheduleMatchesScalar(const RandomBody& rb, int lanes,
                                 const Schedule& schedule) {
  BatchedHitAndRunSampler batched(&rb.body, lanes);
  std::vector<util::Rng> lane_rngs;
  std::vector<util::Rng> scalar_rngs;
  std::vector<HitAndRunSampler> scalars;
  util::Rng base(4321);
  for (int l = 0; l < lanes; ++l) {
    lane_rngs.push_back(base.Split(l));
    scalar_rngs.push_back(base.Split(l));
    scalars.emplace_back(&rb.body, rb.inside);
    batched.ResetLane(l, rb.inside);
  }
  std::vector<int> scalar_steps(lanes, 0);
  for (const auto& [lane_set, steps] : schedule) {
    std::vector<util::Rng*> rngs;
    for (int l : lane_set) rngs.push_back(&lane_rngs[l]);
    batched.WalkLanes(steps, lane_set.data(),
                      static_cast<int>(lane_set.size()), rngs.data());
    for (int l : lane_set) {
      scalars[l].Walk(steps, scalar_rngs[l]);
      scalar_steps[l] += steps;
    }
    geom::Vec got;
    for (int l = 0; l < lanes; ++l) {
      batched.GetCurrent(l, &got);
      ASSERT_EQ(got, scalars[l].current())
          << "lanes " << lanes << " lane " << l << " after "
          << scalar_steps[l] << " steps";
    }
  }
  // Lane 0 crosses the exact-refresh boundary inside a listed walk.
  EXPECT_GT(scalar_steps[0], kSamplerRefreshInterval);
}

TEST(BatchSamplerTest, SubsetWalksMatchScalarSchedules) {
  // Lanes walked through arbitrary subset schedules (the Karp–Luby loop's
  // access pattern: different lanes advance by different step counts at
  // different times) must still match scalar chains walking the same
  // per-lane totals. A full but permuted lane list walks the listed path
  // over every lane; at 16 lanes that is the widest stack scratch.
  util::Rng body_rng(77);
  RandomBody rb = MakeRandomBody(3, body_rng);
  // Non-contiguous, unordered-looking lane sets; lane 0 never rests, lane 3
  // mostly rests. Only {0, 1, 2, 3} takes the dense path.
  const Schedule four_lanes = {
      {{0, 2}, 37},       {{0, 1, 3}, 11}, {{0}, 301},
      {{1, 2}, 64},       {{0, 1, 2, 3}, 129}, {{2, 0}, 40},
      {{0, 1, 2}, 257},   {{3, 1, 0, 2}, 300},
  };
  ExpectScheduleMatchesScalar(rb, 4, four_lanes);
  if (HasFatalFailure()) return;
  std::vector<int> reversed(16), identity(16);
  for (int l = 0; l < 16; ++l) {
    reversed[l] = 15 - l;
    identity[l] = l;
  }
  const Schedule sixteen_lanes = {
      {{0, 5, 9, 15}, 37}, {reversed, 300},    {{1, 3, 5, 7, 9, 11, 13}, 64},
      {identity, 129},     {{2, 0, 15, 7, 11}, 257}, {{0}, 400},
  };
  ExpectScheduleMatchesScalar(rb, 16, sixteen_lanes);
}

TEST(BatchSamplerDeathTest, RejectsMoreLanesThanTheStackScratch) {
  util::Rng body_rng(9);
  RandomBody rb = MakeRandomBody(2, body_rng);
  EXPECT_DEATH(BatchedHitAndRunSampler(&rb.body, kBatchMaxLanes + 1),
               "kBatchMaxLanes");
}

TEST(BatchSamplerTest, LazyLaneInitAndReset) {
  // Lanes initialize independently (the Karp–Luby loop only pays burn-in for
  // chains a chunk actually picks), and ResetLane mid-walk resyncs a lane
  // exactly like the scalar set_current.
  util::Rng body_rng(55);
  RandomBody rb = MakeRandomBody(2, body_rng);
  const int lanes = 3;
  BatchedHitAndRunSampler batched(&rb.body, lanes);
  EXPECT_FALSE(batched.lane_initialized(0));
  batched.ResetLane(1, rb.inside);
  EXPECT_FALSE(batched.lane_initialized(0));
  EXPECT_TRUE(batched.lane_initialized(1));

  util::Rng walk_rng(808), scalar_walk_rng(808);
  const int list[] = {1};
  util::Rng* rngs[] = {&walk_rng};
  batched.WalkLanes(100, list, 1, rngs);

  HitAndRunSampler scalar(&rb.body, rb.inside);
  scalar.Walk(100, scalar_walk_rng);
  geom::Vec got;
  batched.GetCurrent(1, &got);
  EXPECT_EQ(got, scalar.current());

  // Teleport the lane back to the seed point: the next walk must match a
  // fresh chain bit for bit (caches resynced, no stale state).
  batched.ResetLane(1, rb.inside);
  scalar.set_current(rb.inside);
  util::Rng rng_a(909), rng_b(909);
  util::Rng* rngs_a[] = {&rng_a};
  batched.WalkLanes(80, list, 1, rngs_a);
  scalar.Walk(80, rng_b);
  batched.GetCurrent(1, &got);
  EXPECT_EQ(got, scalar.current());
}

TEST(BatchSamplerTest, SetBallRadiusThenResetMatchesFreshScalar) {
  // The annealing estimator's reuse pattern: one body per schedule, radius
  // swapped between phases, every lane restarted. Lane trajectories must
  // match scalar samplers constructed after the radius change.
  util::Rng body_rng(66);
  RandomBody rb = MakeRandomBody(3, body_rng);
  const int ball = 0;  // MakeRandomBody adds at least one ball
  const int lanes = 4;
  BatchedHitAndRunSampler batched(&rb.body, lanes);
  std::vector<util::Rng> lane_rngs;
  for (int l = 0; l < lanes; ++l) {
    lane_rngs.push_back(util::Rng(500 + l));
    batched.ResetLane(l, rb.inside);
  }
  batched.WalkAll(64, lane_rngs.data());

  const double grown = std::sqrt(rb.body.ball_radius2()[ball]) * 1.5;
  rb.body.SetBallRadius(ball, grown);
  for (int l = 0; l < lanes; ++l) {
    lane_rngs[l] = util::Rng(700 + l);
    batched.ResetLane(l, rb.inside);
  }
  batched.WalkAll(200, lane_rngs.data());
  geom::Vec got;
  for (int l = 0; l < lanes; ++l) {
    util::Rng scalar_rng(700 + l);
    HitAndRunSampler scalar(&rb.body, rb.inside);
    scalar.Walk(200, scalar_rng);
    batched.GetCurrent(l, &got);
    ASSERT_EQ(got, scalar.current()) << "lane " << l;
  }
}

}  // namespace
}  // namespace mudb::convex
