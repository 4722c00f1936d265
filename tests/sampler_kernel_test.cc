// The fused hit-and-run kernel against a straightforward reference
// implementation (the pre-fusion Chord + Contains + AddScaled step), across
// randomized polytope/ball bodies and dimensions, plus an allocation-count
// smoke proving the step loop is allocation-free (run under ASan in CI).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/convex/batch_sampler.h"
#include "src/convex/body.h"
#include "src/geom/geometry.h"
#include "src/util/rng.h"
#include "tests/scalar_sampler.h"

// Global allocation counter for the no-allocation smoke. Routed through
// malloc/free so sanitizer interposition keeps working underneath; noinline
// keeps gcc from pairing an inlined free() with a visible new-expression
// and raising -Wmismatched-new-delete.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace mudb::convex {
namespace {

// The straightforward chord oracle the fused kernel must reproduce: full
// A·x and A·d dot products per call, quadratic per ball.
std::optional<std::pair<double, double>> ReferenceChord(const ConvexBody& body,
                                                        const geom::Vec& x,
                                                        const geom::Vec& d) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const int n = body.dim();
  for (int i = 0; i < body.num_halfspaces(); ++i) {
    const double* a = body.halfspace_matrix() + static_cast<size_t>(i) * n;
    double ad = 0.0, ax = 0.0;
    for (int j = 0; j < n; ++j) {
      ad += a[j] * d[j];
      ax += a[j] * x[j];
    }
    const double b = body.offsets()[i];
    if (std::fabs(ad) < 1e-14) {
      if (ax > b + 1e-9) return std::nullopt;
      continue;
    }
    double t = (b - ax) / ad;
    if (ad > 0) {
      hi = std::min(hi, t);
    } else {
      lo = std::max(lo, t);
    }
  }
  for (int k = 0; k < body.num_balls(); ++k) {
    const double* c = body.ball_centers() + static_cast<size_t>(k) * n;
    geom::Vec xc(n);
    for (int i = 0; i < n; ++i) xc[i] = x[i] - c[i];
    double bq = geom::Dot(xc, d);
    double cq = geom::Dot(xc, xc) - body.ball_radius2()[k];
    double disc = bq * bq - cq;
    if (disc <= 0) return std::nullopt;
    double sq = std::sqrt(disc);
    lo = std::max(lo, -bq - sq);
    hi = std::min(hi, -bq + sq);
  }
  if (!(lo < hi)) return std::nullopt;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return std::nullopt;
  return std::make_pair(lo, hi);
}

// One reference hit-and-run step (the pre-fusion implementation), consuming
// the rng exactly like HitAndRunSampler::Step.
geom::Vec ReferenceStep(const ConvexBody& body, const geom::Vec& x,
                        util::Rng& rng) {
  geom::Vec d = geom::SampleUnitSphere(body.dim(), rng);
  auto chord = ReferenceChord(body, x, d);
  if (!chord) return x;
  double t = rng.Uniform(chord->first, chord->second);
  geom::Vec next = geom::AddScaled(x, t, d);
  if (!body.Contains(next)) {
    next = geom::AddScaled(next, 0.5 * (chord->first + chord->second) - t, d);
  }
  return next;
}

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

TEST(FusedKernelTest, ChordMatchesReferenceOnRandomBodies) {
  util::Rng rng(101);
  for (int dim = 1; dim <= 6; ++dim) {
    for (int rep = 0; rep < 200; ++rep) {
      RandomBody rb = MakeRandomBody(dim, rng);
      geom::Vec d = geom::SampleUnitSphere(dim, rng);
      auto fast = rb.body.Chord(rb.inside, d);
      auto ref = ReferenceChord(rb.body, rb.inside, d);
      ASSERT_EQ(fast.has_value(), ref.has_value())
          << "dim " << dim << " rep " << rep;
      if (!fast) continue;
      EXPECT_NEAR(fast->first, ref->first, 1e-9);
      EXPECT_NEAR(fast->second, ref->second, 1e-9);
    }
  }
}

TEST(FusedKernelTest, StepMatchesReferenceStepwise) {
  // Per-step comparison from the same point with cloned rngs: the fused
  // incremental step must land where the two-pass reference lands, up to
  // the bounded cache drift (refreshed on a fixed schedule).
  util::Rng body_rng(202);
  for (int dim : {1, 2, 3, 5}) {
    RandomBody rb = MakeRandomBody(dim, body_rng);
    HitAndRunSampler sampler(&rb.body, rb.inside);
    util::Rng rng(303);
    for (int step = 0; step < 400; ++step) {
      geom::Vec from = sampler.current();
      util::Rng ref_rng = rng;  // clone: identical draws for both paths
      geom::Vec expected = ReferenceStep(rb.body, from, ref_rng);
      sampler.Step(rng);
      for (int j = 0; j < dim; ++j) {
        ASSERT_NEAR(sampler.current()[j], expected[j], 1e-9)
            << "dim " << dim << " step " << step;
      }
    }
  }
}

TEST(FusedKernelTest, LongWalkStaysInsideAcrossCacheRefreshes) {
  // 5000 steps crosses several refresh intervals; containment throughout
  // bounds the incremental drift below the guard tolerances.
  util::Rng body_rng(404);
  RandomBody rb = MakeRandomBody(4, body_rng);
  HitAndRunSampler sampler(&rb.body, rb.inside);
  util::Rng rng(505);
  for (int step = 0; step < 5000; ++step) {
    sampler.Step(rng);
    ASSERT_TRUE(rb.body.Contains(sampler.current())) << "step " << step;
  }
}

TEST(FusedKernelTest, SetCurrentResyncsCaches) {
  util::Rng body_rng(606);
  RandomBody rb = MakeRandomBody(3, body_rng);
  HitAndRunSampler sampler(&rb.body, rb.inside);
  util::Rng rng(707);
  sampler.Walk(50, rng);
  // Teleport back to the seed point; the next steps must match a fresh
  // sampler bit for bit (caches resynced, no stale state).
  sampler.set_current(rb.inside);
  HitAndRunSampler fresh(&rb.body, rb.inside);
  util::Rng rng_a(808);
  util::Rng rng_b(808);
  sampler.Walk(50, rng_a);
  fresh.Walk(50, rng_b);
  EXPECT_EQ(sampler.current(), fresh.current());
}

TEST(FusedKernelTest, BatchedLanesEquivalentToScalarAtEveryK) {
  // Reference-equivalence for the K-chain lockstep kernel: at every
  // dense-specialized K,
  // every lane must track a scalar HitAndRunSampler on the same (body,
  // start, substream) exactly, across the 1024-step refresh boundary (1500
  // steps total, compared mid-walk so a drifting cache cannot re-converge).
  util::Rng body_rng(321);
  for (int dim : {2, 4}) {
    RandomBody rb = MakeRandomBody(dim, body_rng);
    for (int lanes : {1, 2, 4, 8, 16}) {
      BatchedHitAndRunSampler batched(&rb.body, lanes);
      std::vector<util::Rng> lane_rngs;
      util::Rng base(1000 + dim);
      for (int l = 0; l < lanes; ++l) {
        lane_rngs.push_back(base.Split(l));
        batched.ResetLane(l, rb.inside);
      }
      geom::Vec got;
      for (int block = 0; block < 3; ++block) {
        batched.WalkAll(500, lane_rngs.data());
        for (int l = 0; l < lanes; ++l) {
          util::Rng scalar_rng = base.Split(l);
          HitAndRunSampler scalar(&rb.body, rb.inside);
          scalar.Walk(500 * (block + 1), scalar_rng);
          batched.GetCurrent(l, &got);
          ASSERT_EQ(got, scalar.current())
              << "dim " << dim << " K " << lanes << " lane " << l
              << " after " << 500 * (block + 1) << " steps";
        }
      }
    }
  }
}

TEST(FusedKernelTest, BatchedWalkLoopIsAllocationFree) {
  // Same contract as the scalar loop: after warm-up, lockstep walking must
  // not allocate, and the count must not scale with steps — on the dense
  // panel and on a listed lane subset alike.
  util::Rng body_rng(909);
  RandomBody rb = MakeRandomBody(5, body_rng);
  const int lanes = 8;
  BatchedHitAndRunSampler batched(&rb.body, lanes);
  std::vector<util::Rng> lane_rngs;
  for (int l = 0; l < lanes; ++l) {
    lane_rngs.push_back(util::Rng(111 + l));
    batched.ResetLane(l, rb.inside);
  }
  const int listed[] = {6, 1, 3};
  util::Rng* listed_rngs[] = {&lane_rngs[6], &lane_rngs[1], &lane_rngs[3]};
  batched.WalkAll(100, lane_rngs.data());  // warm-up
  auto count_allocs = [&](int steps) {
    int64_t before = g_allocations.load(std::memory_order_relaxed);
    batched.WalkAll(steps, lane_rngs.data());
    batched.WalkLanes(steps, listed, 3, listed_rngs);
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  int64_t allocs_small = count_allocs(500);
  int64_t allocs_large = count_allocs(5000);
  EXPECT_EQ(allocs_small, allocs_large);
  EXPECT_EQ(allocs_small, 0);
}

TEST(FusedKernelTest, StepLoopIsAllocationFree) {
  util::Rng body_rng(909);
  RandomBody rb = MakeRandomBody(5, body_rng);
  HitAndRunSampler sampler(&rb.body, rb.inside);
  util::Rng rng(111);
  sampler.Walk(100, rng);  // warm-up: scratch sized, caches built
  auto count_allocs = [&](int steps) {
    int64_t before = g_allocations.load(std::memory_order_relaxed);
    sampler.Walk(steps, rng);
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  int64_t allocs_small = count_allocs(500);
  int64_t allocs_large = count_allocs(5000);
  // Allocation count must not scale with the step count — and is in fact 0.
  EXPECT_EQ(allocs_small, allocs_large);
  EXPECT_EQ(allocs_small, 0);
}

}  // namespace
}  // namespace mudb::convex
