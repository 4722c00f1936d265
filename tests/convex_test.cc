// Tests for src/convex: bodies, chords, inner balls, hit-and-run, annealed
// volume estimation.

#include <cmath>

#include <gtest/gtest.h>

#include "src/convex/body.h"
#include "src/convex/volume.h"
#include "src/geom/geometry.h"
#include "tests/scalar_sampler.h"

namespace mudb::convex {
namespace {

ConvexBody UnitBallBody(int n) {
  ConvexBody body(n);
  body.AddBall(geom::Vec(n, 0.0), 1.0);
  return body;
}

// The positive-orthant cone intersected with the unit ball.
ConvexBody OrthantCone(int n) {
  ConvexBody body(n);
  for (int j = 0; j < n; ++j) {
    geom::Vec a(n, 0.0);
    a[j] = -1.0;  // -x_j <= 0, i.e. x_j >= 0
    body.AddHalfspace(a, 0.0);
  }
  body.AddBall(geom::Vec(n, 0.0), 1.0);
  return body;
}

TEST(BodyTest, ContainsRespectsHalfspacesAndBalls) {
  ConvexBody body = OrthantCone(2);
  EXPECT_TRUE(body.Contains({0.3, 0.3}));
  EXPECT_FALSE(body.Contains({-0.3, 0.3}));
  EXPECT_FALSE(body.Contains({0.9, 0.9}));  // outside the ball
  EXPECT_TRUE(body.Contains({0.0, 0.0}));
}

TEST(BodyTest, ChordAgainstBall) {
  ConvexBody body = UnitBallBody(2);
  auto chord = body.Chord({0.0, 0.0}, {1.0, 0.0});
  ASSERT_TRUE(chord.has_value());
  EXPECT_NEAR(chord->first, -1.0, 1e-12);
  EXPECT_NEAR(chord->second, 1.0, 1e-12);
}

TEST(BodyTest, ChordAgainstHalfspace) {
  ConvexBody body = OrthantCone(2);
  auto chord = body.Chord({0.2, 0.2}, {1.0, 0.0});
  ASSERT_TRUE(chord.has_value());
  EXPECT_NEAR(chord->first, -0.2, 1e-12);  // x >= 0 wall
  // Right end on the unit circle: 0.04 + (0.2+t)^2 = 1.
  EXPECT_NEAR(chord->second, std::sqrt(1 - 0.04) - 0.2, 1e-12);
}

TEST(BodyTest, ChordParallelToHalfspaceOutside) {
  ConvexBody body(2);
  body.AddHalfspace({0.0, 1.0}, 0.0);  // y <= 0
  body.AddBall({0.0, 0.0}, 1.0);
  // Point above the halfspace, direction parallel to it: no chord.
  EXPECT_FALSE(body.Chord({0.0, 0.5}, {1.0, 0.0}).has_value());
}

TEST(InnerBallTest, OrthantConeHasInteriorBall) {
  std::vector<std::pair<geom::Vec, double>> hs;
  for (int j = 0; j < 3; ++j) {
    geom::Vec a(3, 0.0);
    a[j] = -1.0;
    hs.emplace_back(a, 0.0);
  }
  auto inner = FindInnerBall(hs, 3, 1.0);
  ASSERT_TRUE(inner.has_value());
  EXPECT_GT(inner->radius, 0.05);
  // The ball must sit inside the cone and the unit ball.
  for (int j = 0; j < 3; ++j) {
    EXPECT_GE(inner->center[j], inner->radius - 1e-9);
  }
  EXPECT_LE(geom::Norm(inner->center) + inner->radius, 1.0 + 1e-9);
}

TEST(InnerBallTest, EmptyConeReturnsNothing) {
  // x <= 0 and -x <= 0 and then y <= -x ... make an actually empty interior:
  // x >= 0 and x <= 0 pins x = 0 (lower-dimensional).
  std::vector<std::pair<geom::Vec, double>> hs;
  hs.push_back({{1.0, 0.0}, 0.0});   // x <= 0
  hs.push_back({{-1.0, 0.0}, 0.0});  // x >= 0
  auto inner = FindInnerBall(hs, 2, 1.0);
  EXPECT_FALSE(inner.has_value());
}

TEST(InnerBallTest, TrivialAndInfeasibleZeroRows) {
  std::vector<std::pair<geom::Vec, double>> trivial;
  trivial.push_back({{0.0, 0.0}, 1.0});  // 0 <= 1
  EXPECT_TRUE(FindInnerBall(trivial, 2, 1.0).has_value());
  std::vector<std::pair<geom::Vec, double>> impossible;
  impossible.push_back({{0.0, 0.0}, -1.0});  // 0 <= -1
  EXPECT_FALSE(FindInnerBall(impossible, 2, 1.0).has_value());
}

TEST(InnerBallTest, FinderReuseIsPure) {
  // A reused InnerBallFinder must return bit-identical inner balls to
  // one-shot FindInnerBall calls for every cone, in any order — the
  // guarantee that lets the FPRAS chunk cones across a finder without
  // perturbing the estimate.
  util::Rng rng(77);
  std::vector<std::vector<std::pair<geom::Vec, double>>> cones;
  for (int c = 0; c < 8; ++c) {
    int dim = 2 + c % 3;
    std::vector<std::pair<geom::Vec, double>> hs;
    for (int i = 0; i < dim; ++i) {
      geom::Vec a(dim);
      for (int j = 0; j < dim; ++j) a[j] = rng.Uniform(-1, 1);
      hs.emplace_back(std::move(a), 0.0);
    }
    cones.push_back(std::move(hs));
  }
  for (int dim : {2, 3, 4}) {
    InnerBallFinder finder(dim, 1.0);
    for (const auto& cone : cones) {
      if (static_cast<int>(cone[0].first.size()) != dim) continue;
      auto one_shot = FindInnerBall(cone, dim, 1.0);
      auto reused = finder.Find(cone);
      ASSERT_EQ(one_shot.has_value(), reused.has_value());
      if (!one_shot) continue;
      EXPECT_EQ(one_shot->center, reused->center);
      EXPECT_EQ(one_shot->radius, reused->radius);
    }
  }
}

TEST(BodyTest, SetBallRadiusMatchesFreshlyBuiltBody) {
  // The annealing estimator mutates one ball's radius in place; the mutated
  // body must behave bit-identically to a body built with that radius.
  ConvexBody mutated = OrthantCone(3);
  mutated.SetBallRadius(0, 0.6);
  ConvexBody fresh(3);
  for (int j = 0; j < 3; ++j) {
    geom::Vec a(3, 0.0);
    a[j] = -1.0;
    fresh.AddHalfspace(a, 0.0);
  }
  fresh.AddBall(geom::Vec(3, 0.0), 0.6);
  util::Rng rng(13);
  for (int rep = 0; rep < 100; ++rep) {
    geom::Vec x(3), d = geom::SampleUnitSphere(3, rng);
    for (int j = 0; j < 3; ++j) x[j] = rng.Uniform(0.0, 0.3);
    EXPECT_EQ(mutated.Contains(x), fresh.Contains(x));
    auto a = mutated.Chord(x, d);
    auto b = fresh.Chord(x, d);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->first, b->first);
      EXPECT_EQ(a->second, b->second);
    }
  }
  EXPECT_EQ(mutated.ball_radius2()[0], 0.36);
}

TEST(SamplerTest, StaysInsideBody) {
  ConvexBody body = OrthantCone(3);
  util::Rng rng(5);
  HitAndRunSampler sampler(&body, {0.1, 0.1, 0.1});
  for (int i = 0; i < 2000; ++i) {
    sampler.Step(rng);
    EXPECT_TRUE(body.Contains(sampler.current()));
  }
}

TEST(SamplerTest, BallSamplingIsApproximatelyUniform) {
  // In the unit ball, P(||x|| <= 2^{-1/n}) should be 1/2.
  const int n = 2;
  ConvexBody body = UnitBallBody(n);
  util::Rng rng(6);
  HitAndRunSampler sampler(&body, geom::Vec(n, 0.0));
  sampler.Walk(200, rng);
  int inside = 0;
  const int m = 20000;
  double threshold = std::pow(0.5, 1.0 / n);
  for (int i = 0; i < m; ++i) {
    sampler.Walk(8, rng);
    if (geom::Norm(sampler.current()) <= threshold) ++inside;
  }
  EXPECT_NEAR(static_cast<double>(inside) / m, 0.5, 0.03);
}

TEST(VolumeTest, UnitBall2D) {
  ConvexBody body = UnitBallBody(2);
  InnerBall inner{geom::Vec(2, 0.0), 0.9};
  VolumeOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(7);
  VolumeEstimate est = EstimateVolume(body, inner, 1.01, opts, rng);
  EXPECT_NEAR(est.volume, M_PI, 0.12 * M_PI);
}

TEST(VolumeTest, HalfBall2D) {
  ConvexBody body(2);
  body.AddHalfspace({0.0, 1.0}, 0.0);  // y <= 0
  body.AddBall({0.0, 0.0}, 1.0);
  auto inner = FindInnerBall({{{0.0, 1.0}, 0.0}}, 2, 1.0);
  ASSERT_TRUE(inner.has_value());
  VolumeOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(8);
  VolumeEstimate est =
      EstimateVolume(body, *inner, 1.0 + geom::Norm(inner->center), opts, rng);
  EXPECT_NEAR(est.volume, M_PI / 2, 0.12 * M_PI / 2);
}

TEST(SamplerTest, ThinBodyStaysInsideAndMoves) {
  // A nearly degenerate slab: |y| <= 1e-6 inside the unit disc. Almost every
  // chord is tiny (long moves need near-tangent directions — the known slow
  // mixing of hit-and-run on thin bodies), so the test asserts containment
  // under rounding pressure plus movement relative to the slab scale, not
  // full mixing.
  const double half_width = 1e-6;
  ConvexBody body(2);
  body.AddHalfspace({0.0, 1.0}, half_width);   // y <= 1e-6
  body.AddHalfspace({0.0, -1.0}, half_width);  // y >= -1e-6
  body.AddBall({0.0, 0.0}, 1.0);
  util::Rng rng(17);
  HitAndRunSampler sampler(&body, {0.0, 0.0});
  double max_abs_x = 0.0;
  for (int i = 0; i < 5000; ++i) {
    sampler.Step(rng);
    ASSERT_TRUE(body.Contains(sampler.current()));
    max_abs_x = std::max(max_abs_x, std::fabs(sampler.current()[0]));
  }
  // The chain is not stuck: it travels orders of magnitude beyond the short
  // axis along the long one.
  EXPECT_GT(max_abs_x, 100 * half_width);
}

TEST(SamplerTest, OneDimensionalBody) {
  // 1-D body: the segment [-1, 0.5]. Directions are ±1; chords are the whole
  // segment, so a few steps must mix over it.
  ConvexBody body(1);
  body.AddHalfspace({1.0}, 0.5);  // x <= 0.5
  body.AddBall({0.0}, 1.0);       // x >= -1
  util::Rng rng(21);
  HitAndRunSampler sampler(&body, {0.0});
  int below = 0;
  const int m = 20000;
  for (int i = 0; i < m; ++i) {
    sampler.Step(rng);
    ASSERT_TRUE(body.Contains(sampler.current()));
    if (sampler.current()[0] < -0.25) ++below;
  }
  // [-1, -0.25) is half of [-1, 0.5].
  EXPECT_NEAR(static_cast<double>(below) / m, 0.5, 0.03);
}

TEST(InnerBallTest, ThinConeHasEmptyInterior) {
  // Opposing halfspaces pin y = 0: the cone degenerates to a half-line, the
  // LP margin stays below threshold, and the cone is dropped (volume 0) —
  // how the FPRAS pipeline discards measure-zero disjuncts.
  std::vector<std::pair<geom::Vec, double>> hs;
  hs.push_back({{0.0, 1.0}, 0.0});   // y <= 0
  hs.push_back({{0.0, -1.0}, 0.0});  // y >= 0
  hs.push_back({{-1.0, 0.0}, 0.0});  // x >= 0
  EXPECT_FALSE(FindInnerBall(hs, 2, 1.0).has_value());
}

TEST(InnerBallTest, OneDimensionalHalfLine) {
  // In 1-D the cone x >= 0 inside [-1, 1] has inner "ball" an interval.
  std::vector<std::pair<geom::Vec, double>> hs;
  hs.push_back({{-1.0}, 0.0});  // x >= 0
  auto inner = FindInnerBall(hs, 1, 1.0);
  ASSERT_TRUE(inner.has_value());
  EXPECT_GT(inner->radius, 0.1);
  EXPECT_GE(inner->center[0], inner->radius - 1e-9);
}

TEST(VolumeTest, OneDimensionalSegment) {
  // Vol([-1, 0.5]) = 1.5, via the full annealing pipeline in n = 1.
  ConvexBody body(1);
  body.AddHalfspace({1.0}, 0.5);
  body.AddBall({0.0}, 1.0);
  InnerBall inner{{-0.25}, 0.2};
  VolumeOptions opts;
  opts.epsilon = 0.05;
  util::Rng rng(23);
  VolumeEstimate est = EstimateVolume(body, inner, 1.5, opts, rng);
  EXPECT_NEAR(est.volume, 1.5, 0.15);
}

TEST(VolumeTest, EstimateIsPoolInvariant) {
  // The same seed must give the identical estimate inline and on pools of
  // different sizes (the chunk grid is a function of the budget alone).
  ConvexBody body = OrthantCone(3);
  std::vector<std::pair<geom::Vec, double>> hs;
  for (int j = 0; j < 3; ++j) {
    geom::Vec a(3, 0.0);
    a[j] = -1.0;
    hs.emplace_back(a, 0.0);
  }
  auto inner = FindInnerBall(hs, 3, 1.0);
  ASSERT_TRUE(inner.has_value());
  VolumeOptions opts;
  opts.epsilon = 0.1;
  util::Rng rng_inline(31);
  double baseline =
      EstimateVolume(body, *inner, 2.0, opts, rng_inline).volume;
  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    VolumeOptions pooled = opts;
    pooled.pool = &pool;
    util::Rng rng(31);
    EXPECT_EQ(EstimateVolume(body, *inner, 2.0, pooled, rng).volume, baseline)
        << "threads " << threads;
  }
}

TEST(VolumeTest, OrthantCone3DIsEighthBall) {
  ConvexBody body = OrthantCone(3);
  std::vector<std::pair<geom::Vec, double>> hs;
  for (int j = 0; j < 3; ++j) {
    geom::Vec a(3, 0.0);
    a[j] = -1.0;
    hs.emplace_back(a, 0.0);
  }
  auto inner = FindInnerBall(hs, 3, 1.0);
  ASSERT_TRUE(inner.has_value());
  VolumeOptions opts;
  opts.epsilon = 0.08;
  util::Rng rng(9);
  VolumeEstimate est =
      EstimateVolume(body, *inner, 1.0 + geom::Norm(inner->center), opts, rng);
  double expected = geom::BallVolume(3) / 8.0;
  EXPECT_NEAR(est.volume, expected, 0.2 * expected);
}

}  // namespace
}  // namespace mudb::convex
