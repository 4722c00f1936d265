// Guards the parallel sampling runtime's determinism contract: every
// randomized estimator returns bit-identical results for any num_threads
// given the same seed (work is carved into RNG substreams by the workload,
// never by the thread count), and distinct seeds produce distinct sample
// paths (the substreams really are a function of the seed).

#include <vector>

#include <gtest/gtest.h>

#include "src/measure/afpras.h"
#include "src/measure/conditional.h"
#include "src/measure/fpras.h"
#include "src/measure/measure.h"
#include "src/measure/probabilistic.h"
#include "src/util/rng.h"

namespace mudb::measure {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }

constexpr int kThreadAxis[] = {1, 2, 8};

// A 3-D disjunction of two cones: exercises the full FPRAS pipeline (two
// bodies, several annealing phases, the Karp–Luby loop).
RealFormula ConeUnion() {
  std::vector<RealFormula> pos;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> neg;
  for (int i = 0; i < 3; ++i) {
    neg.push_back(RealFormula::Cmp(Z(i), CmpOp::kLt));
  }
  std::vector<RealFormula> ors{RealFormula::And(std::move(pos)),
                               RealFormula::And(std::move(neg))};
  return RealFormula::Or(std::move(ors));
}

TEST(DeterminismTest, FprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    FprasOptions opts;
    opts.epsilon = 0.2;  // keep the battery fast; determinism is exact anyway
    opts.num_threads = threads;
    util::Rng rng(1234);
    auto r = FprasConjunctive(f, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, AfprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    AfprasOptions opts;
    opts.num_samples = 50000;  // > 1 chunk, uneven tail chunk
    opts.num_threads = threads;
    util::Rng rng(99);
    auto r = Afpras(f, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ConditionalAfprasIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  VarRanges ranges(3);
  ranges[0] = VarRange::Between(-1.0, 2.0);
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    AfprasOptions opts;
    opts.num_samples = 30000;
    opts.num_threads = threads;
    util::Rng rng(7);
    auto r = ConditionalAfpras(f, ranges, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ProbabilisticMeasureIsThreadCountInvariant) {
  RealFormula f = ConeUnion();
  const std::vector<Distribution> dists{Distribution::Gaussian(0.0, 1.0),
                                        Distribution::Uniform(-1.0, 2.0),
                                        Distribution::Exponential(1.5)};
  double baseline = 0.0;
  for (int threads : kThreadAxis) {
    AfprasOptions opts;
    opts.num_samples = 30000;  // > 1 chunk, uneven tail chunk
    opts.num_threads = threads;
    util::Rng rng(11);
    auto r = ProbabilisticMeasure(f, dists, opts, rng);
    ASSERT_TRUE(r.ok());
    if (threads == kThreadAxis[0]) {
      baseline = r->estimate;
      EXPECT_GT(baseline, 0.0);
    } else {
      EXPECT_EQ(r->estimate, baseline) << "threads " << threads;
    }
  }
}

TEST(DeterminismTest, ComputeNuThreadsThreadCountThrough) {
  // End-to-end through the dispatch layer: kFpras and kAfpras both reach
  // the pool, and the MeasureOptions seed pins the result.
  RealFormula f = ConeUnion();
  for (Method method : {Method::kFpras, Method::kAfpras}) {
    MeasureOptions one;
    one.method = method;
    one.epsilon = method == Method::kFpras ? 0.2 : 0.02;
    one.num_threads = 1;
    MeasureOptions eight = one;
    eight.num_threads = 8;
    auto a = ComputeNu(f, one);
    auto b = ComputeNu(f, eight);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->value, b->value) << MethodToString(method);
  }
}

TEST(DeterminismTest, DistinctSeedsProduceDistinctSamplePaths) {
  // With continuous estimators, distinct substreams collide on the same
  // float with probability ~0; equality across several seeds would mean the
  // seed is being ignored somewhere in the substream plumbing.
  RealFormula f = ConeUnion();
  std::vector<double> fpras_estimates, afpras_estimates;
  for (uint64_t seed : {1u, 2u, 3u}) {
    FprasOptions fopts;
    fopts.epsilon = 0.2;
    fopts.num_threads = 2;
    util::Rng frng(seed);
    auto fr = FprasConjunctive(f, fopts, frng);
    ASSERT_TRUE(fr.ok());
    fpras_estimates.push_back(fr->estimate);

    AfprasOptions aopts;
    aopts.num_samples = 50000;
    aopts.num_threads = 2;
    util::Rng arng(seed);
    auto ar = Afpras(f, aopts, arng);
    ASSERT_TRUE(ar.ok());
    afpras_estimates.push_back(ar->estimate);
  }
  EXPECT_NE(fpras_estimates[0], fpras_estimates[1]);
  EXPECT_NE(fpras_estimates[1], fpras_estimates[2]);
  EXPECT_NE(afpras_estimates[0], afpras_estimates[1]);
  EXPECT_NE(afpras_estimates[1], afpras_estimates[2]);
}

TEST(DeterminismTest, RepeatedCallsWithOneRngConsumeRandomness) {
  // The estimators fork the caller's Rng once per call, so averaging repeats
  // over a single Rng object draws genuinely fresh sample paths.
  RealFormula f = ConeUnion();
  util::Rng rng(13);
  AfprasOptions opts;
  opts.num_samples = 50000;
  auto a = Afpras(f, opts, rng);
  auto b = Afpras(f, opts, rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->estimate, b->estimate);

  util::Rng frng(13);
  FprasOptions fopts;
  fopts.epsilon = 0.2;
  auto fa = FprasConjunctive(f, fopts, frng);
  auto fb = FprasConjunctive(f, fopts, frng);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_NE(fa->estimate, fb->estimate);
}

TEST(DeterminismTest, SameSeedSameResultAcrossRepeats) {
  // The pool is stateful (persistent workers); repeated runs on one process
  // must not leak state between calls.
  RealFormula f = ConeUnion();
  FprasOptions opts;
  opts.epsilon = 0.2;
  opts.num_threads = 4;
  util::Rng rng1(5), rng2(5);
  auto a = FprasConjunctive(f, opts, rng1);
  auto b = FprasConjunctive(f, opts, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimate, b->estimate);
}

}  // namespace
}  // namespace mudb::measure
