// Tests for src/geom: vector helpers, ball volumes, sampling, arc sets.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/geom/arcs.h"
#include "src/geom/geometry.h"
#include "src/util/thread_pool.h"

namespace mudb::geom {
namespace {

TEST(VectorTest, NormDotAddScaled) {
  Vec a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Norm(a), 5.0);
  Vec b{1.0, -1.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), -1.0);
  Vec c = AddScaled(a, 2.0, b);
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
}

TEST(VectorTest, AddScaledInPlaceMatchesAllocating) {
  Vec a{3.0, 4.0};
  Vec b{1.0, -1.0};
  Vec expected = AddScaled(a, 2.0, b);
  AddScaledInPlace(a, 2.0, b);
  EXPECT_EQ(a, expected);
}

TEST(SamplingTest, InPlaceSphereSamplingMatchesAllocating) {
  // Same seed ⇒ identical draws: the overloads must consume the rng the
  // same way and produce the same bits.
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  Vec scratch;
  for (int n : {1, 3, 7}) {
    for (int i = 0; i < 50; ++i) {
      Vec fresh = SampleUnitSphere(n, rng_a);
      SampleUnitSphere(n, rng_b, scratch);
      ASSERT_EQ(fresh, scratch) << "n " << n << " draw " << i;
    }
  }
}

TEST(BallVolumeTest, KnownClosedForms) {
  EXPECT_NEAR(BallVolume(0), 1.0, 1e-12);              // Vol(R^0) = 1 (§4)
  EXPECT_NEAR(BallVolume(1), 2.0, 1e-12);              // [-1, 1]
  EXPECT_NEAR(BallVolume(2), M_PI, 1e-12);
  EXPECT_NEAR(BallVolume(3), 4.0 / 3.0 * M_PI, 1e-12);
  EXPECT_NEAR(BallVolume(2, 2.0), 4 * M_PI, 1e-12);    // scales as r^n
  EXPECT_NEAR(BallVolume(3, 0.5), BallVolume(3) / 8, 1e-12);
}

TEST(BallVolumeTest, ConcurrentCallsAgree) {
  // glibc's lgamma() writes the process-global signgam, so BallVolume must
  // stay on a reentrant lgamma: under TSan (CI runs this suite there) a
  // plain lgamma races across the pool's workers.
  constexpr int64_t kCalls = 64;
  auto dim = [](int64_t i) { return static_cast<int>(i % 9); };
  std::vector<double> serial(kCalls);
  for (int64_t i = 0; i < kCalls; ++i) serial[i] = BallVolume(dim(i), 1.5);
  std::vector<double> concurrent(kCalls, 0.0);
  util::ThreadPool pool(4);
  pool.ParallelFor(kCalls,
                   [&](int64_t i) { concurrent[i] = BallVolume(dim(i), 1.5); });
  for (int64_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "call " << i;
  }
}

TEST(SamplingTest, SphereSamplesHaveUnitNorm) {
  util::Rng rng(1);
  for (int n : {1, 2, 3, 7}) {
    for (int i = 0; i < 100; ++i) {
      Vec v = SampleUnitSphere(n, rng);
      ASSERT_EQ(static_cast<int>(v.size()), n);
      EXPECT_NEAR(Norm(v), 1.0, 1e-12);
    }
  }
}

TEST(SamplingTest, SphereIsotropy) {
  // Each coordinate's sign should be a fair coin; covariance ~ I/n.
  util::Rng rng(2);
  const int n = 3, m = 60000;
  Vec mean(n, 0.0);
  for (int i = 0; i < m; ++i) {
    Vec v = SampleUnitSphere(n, rng);
    for (int j = 0; j < n; ++j) mean[j] += v[j];
  }
  for (int j = 0; j < n; ++j) {
    EXPECT_NEAR(mean[j] / m, 0.0, 0.01);
  }
}

TEST(SamplingTest, BallSamplesInsideAndRadiusDistribution) {
  util::Rng rng(3);
  const int n = 2, m = 50000;
  int inside_half = 0;
  for (int i = 0; i < m; ++i) {
    Vec v = SampleUnitBall(n, rng);
    double r = Norm(v);
    EXPECT_LE(r, 1.0 + 1e-12);
    if (r <= 0.5) ++inside_half;
  }
  // P(||x|| <= 1/2) = (1/2)^n = 1/4 in 2D.
  EXPECT_NEAR(static_cast<double>(inside_half) / m, 0.25, 0.01);
}

// ---- ArcSet -----------------------------------------------------------------

TEST(ArcSetTest, EmptyAndFull) {
  ArcSet empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_DOUBLE_EQ(empty.Measure(), 0.0);
  ArcSet full = ArcSet::FullCircle();
  EXPECT_NEAR(full.Measure(), 2 * M_PI, 1e-12);
  EXPECT_NEAR(full.Fraction(), 1.0, 1e-12);
}

TEST(ArcSetTest, AddSimpleInterval) {
  ArcSet s;
  s.AddInterval(0.0, 1.0);
  EXPECT_NEAR(s.Measure(), 1.0, 1e-12);
  s.AddInterval(0.5, 1.5);  // overlapping: union is [0, 1.5)
  EXPECT_NEAR(s.Measure(), 1.5, 1e-12);
  s.AddInterval(2.0, 2.5);  // disjoint
  EXPECT_NEAR(s.Measure(), 2.0, 1e-12);
  EXPECT_EQ(s.arcs().size(), 2u);
}

TEST(ArcSetTest, WrapAroundSplit) {
  ArcSet s;
  s.AddInterval(M_PI - 0.5, M_PI + 0.5);  // crosses the ±π cut
  EXPECT_NEAR(s.Measure(), 1.0, 1e-12);
  EXPECT_EQ(s.arcs().size(), 2u);
}

TEST(ArcSetTest, FullFromOversizedInterval) {
  ArcSet s;
  s.AddInterval(0.0, 10.0);  // width > 2π
  EXPECT_NEAR(s.Fraction(), 1.0, 1e-12);
}

TEST(ArcSetTest, IntersectAndUnion) {
  ArcSet a, b;
  a.AddInterval(0.0, 2.0);
  b.AddInterval(1.0, 3.0);
  EXPECT_NEAR(a.Intersect(b).Measure(), 1.0, 1e-12);
  EXPECT_NEAR(a.Union(b).Measure(), 3.0, 1e-12);
  ArcSet c;
  c.AddInterval(-3.0, -2.5);
  EXPECT_NEAR(a.Intersect(c).Measure(), 0.0, 1e-12);
}

TEST(ArcSetTest, ComplementMeasure) {
  ArcSet a;
  a.AddInterval(0.5, 1.25);
  a.AddInterval(2.0, 2.25);
  ArcSet comp = a.Complement();
  EXPECT_NEAR(a.Measure() + comp.Measure(), 2 * M_PI, 1e-12);
  EXPECT_NEAR(a.Intersect(comp).Measure(), 0.0, 1e-12);
}

class ArcPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ArcPropertyTest, SetAlgebraInvariants) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    ArcSet a, b;
    for (int i = 0; i < 3; ++i) {
      double lo = rng.Uniform(-8, 8);
      a.AddInterval(lo, lo + rng.Uniform(0, 2.5));
      double lo2 = rng.Uniform(-8, 8);
      b.AddInterval(lo2, lo2 + rng.Uniform(0, 2.5));
    }
    // Inclusion-exclusion.
    EXPECT_NEAR(a.Union(b).Measure() + a.Intersect(b).Measure(),
                a.Measure() + b.Measure(), 1e-9);
    // De Morgan.
    EXPECT_NEAR(a.Union(b).Complement().Measure(),
                a.Complement().Intersect(b.Complement()).Measure(), 1e-9);
    // Idempotence.
    EXPECT_NEAR(a.Union(a).Measure(), a.Measure(), 1e-12);
    EXPECT_NEAR(a.Intersect(a).Measure(), a.Measure(), 1e-12);
    // Bounds.
    EXPECT_LE(a.Measure(), 2 * M_PI + 1e-12);
    EXPECT_GE(a.Measure(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcPropertyTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mudb::geom
