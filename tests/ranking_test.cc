// Tests for the adaptive-precision top-k ranking scheduler
// (src/service/ranking_service.h): bit-identical outcomes across thread
// counts and shuffled candidate orders, top-k agreement with fixed-precision
// full-batch ranking at half its sampling steps or fewer, exact-engine
// freezing, pruning accounting, and option validation.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/ranking_service.h"

namespace mudb::service {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using measure::MeasureOptions;
using measure::MeasureResult;
using measure::Method;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

// The planar wedge of polar angles (0, alpha), alpha < π: z1 > 0 together
// with cos(alpha)·z1 − sin(alpha)·z0 < 0. ν = alpha / (2π), so a spread of
// angles is a spread of certainties with known ground truth.
RealFormula Wedge(double alpha) {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(
      C(std::cos(alpha)) * Z(1) - C(std::sin(alpha)) * Z(0), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

MeasureOptions Opts(Method method, double epsilon, uint64_t seed) {
  MeasureOptions o;
  o.method = method;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

constexpr int kWedges = 16;

double WedgeAngle(int d) { return 0.2 + 0.16 * d; }

// The battery's final ε: half of tier 0's, so tier 0 prunes the narrow
// wedges before the survivors refine.
constexpr double kWedgeEpsilon = kRankingCoarseEpsilon / 2;

// 16 FPRAS wedges with ν spread ≈ 0.03 … 0.41, distinct seeds.
std::vector<MeasureRequest> WedgeBattery(double epsilon = kWedgeEpsilon) {
  std::vector<MeasureRequest> reqs;
  reqs.reserve(kWedges);
  for (int d = 0; d < kWedges; ++d) {
    reqs.push_back(MeasureRequest::Nu(
        Wedge(WedgeAngle(d)), Opts(Method::kFpras, epsilon, 100 + d)));
  }
  return reqs;
}

RankingOptions WedgeRanking() {
  RankingOptions opts;
  opts.k = 4;
  opts.delta = 0.1;
  return opts;
}

void ExpectSameOutcome(const RankingOutcome& a, const RankingOutcome& b) {
  EXPECT_EQ(a.top_k, b.top_k);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].result.value, b.candidates[i].result.value) << i;
    EXPECT_EQ(a.candidates[i].result.ci_lo, b.candidates[i].result.ci_lo) << i;
    EXPECT_EQ(a.candidates[i].result.ci_hi, b.candidates[i].result.ci_hi) << i;
    EXPECT_EQ(a.candidates[i].result.tier, b.candidates[i].result.tier) << i;
    EXPECT_EQ(a.candidates[i].pruned, b.candidates[i].pruned) << i;
  }
  EXPECT_EQ(a.tier_stats.size(), b.tier_stats.size());
  EXPECT_EQ(a.total_sampling_steps, b.total_sampling_steps);
}

TEST(RankingTest, BitIdenticalAcrossThreadCounts) {
  ServiceOptions base;
  base.num_threads = 1;
  MeasureService reference_service(base);
  RankingService reference_ranking(&reference_service);
  auto reference = reference_ranking.RankTopK(WedgeBattery(), WedgeRanking());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->top_k.size(), 4u);

  for (int threads : {2, 8}) {
    ServiceOptions sopts;
    sopts.num_threads = threads;
    MeasureService service(sopts);
    RankingService ranking(&service);
    auto outcome = ranking.RankTopK(WedgeBattery(), WedgeRanking());
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ExpectSameOutcome(*reference, *outcome);
  }
}

TEST(RankingTest, ShuffledCandidateOrderPermutesTheOutcome) {
  MeasureService reference_service;
  RankingService reference_ranking(&reference_service);
  auto reference = reference_ranking.RankTopK(WedgeBattery(), WedgeRanking());
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::mt19937_64 gen(13);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> perm(kWedges);
    std::iota(perm.begin(), perm.end(), 0u);
    std::shuffle(perm.begin(), perm.end(), gen);

    std::vector<MeasureRequest> original = WedgeBattery();
    std::vector<MeasureRequest> shuffled;
    for (size_t i : perm) shuffled.push_back(std::move(original[i]));

    MeasureService service;
    RankingService ranking(&service);
    auto outcome = ranking.RankTopK(std::move(shuffled), WedgeRanking());
    ASSERT_TRUE(outcome.ok()) << outcome.status();

    // Map the shuffled outcome back: position j held original perm[j].
    ASSERT_EQ(outcome->top_k.size(), reference->top_k.size());
    for (size_t r = 0; r < outcome->top_k.size(); ++r) {
      EXPECT_EQ(perm[outcome->top_k[r]], reference->top_k[r])
          << "rank " << r << ", round " << round;
    }
    for (size_t j = 0; j < perm.size(); ++j) {
      const RankedCandidate& got = outcome->candidates[j];
      const RankedCandidate& want = reference->candidates[perm[j]];
      EXPECT_EQ(got.result.value, want.result.value) << j;
      EXPECT_EQ(got.result.ci_lo, want.result.ci_lo) << j;
      EXPECT_EQ(got.result.ci_hi, want.result.ci_hi) << j;
      EXPECT_EQ(got.result.tier, want.result.tier) << j;
      EXPECT_EQ(got.pruned, want.pruned) << j;
    }
    EXPECT_EQ(outcome->total_sampling_steps,
              reference->total_sampling_steps);
  }
}

TEST(RankingTest, TopKSetMatchesFixedPrecisionFullBatch) {
  RankingOptions ropts = WedgeRanking();

  // Fixed-precision baseline: every candidate straight at its final ε,
  // with the same per-estimate δ the ladder's final tier uses, so the
  // surviving candidates' final evaluations are bit-identical requests.
  std::vector<MeasureRequest> fixed = WedgeBattery();
  const double tier_delta = RankingTierDelta(ropts, fixed.size());
  for (MeasureRequest& req : fixed) req.options.delta = tier_delta;
  MeasureService fixed_service;
  auto fixed_outcome = fixed_service.RunBatch(std::move(fixed));
  std::vector<size_t> fixed_order(kWedges);
  std::iota(fixed_order.begin(), fixed_order.end(), 0u);
  std::vector<double> fixed_value(kWedges);
  for (int i = 0; i < kWedges; ++i) {
    ASSERT_TRUE(fixed_outcome.results[i].ok());
    fixed_value[i] = fixed_outcome.results[i]->value;
  }
  std::sort(fixed_order.begin(), fixed_order.end(),
            [&](size_t a, size_t b) {
              if (fixed_value[a] != fixed_value[b]) {
                return fixed_value[a] > fixed_value[b];
              }
              return a < b;
            });
  fixed_order.resize(ropts.k);

  MeasureService adaptive_service;
  RankingService adaptive_ranking(&adaptive_service);
  auto adaptive = adaptive_ranking.RankTopK(WedgeBattery(), ropts);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();

  // Identical top-k set, and for its members the adaptive final estimates
  // are bit-identical to the fixed-precision run.
  std::vector<size_t> adaptive_sorted = adaptive->top_k;
  std::vector<size_t> fixed_sorted = fixed_order;
  std::sort(adaptive_sorted.begin(), adaptive_sorted.end());
  std::sort(fixed_sorted.begin(), fixed_sorted.end());
  EXPECT_EQ(adaptive_sorted, fixed_sorted);
  for (size_t i : adaptive->top_k) {
    EXPECT_EQ(adaptive->candidates[i].result.value, fixed_value[i]) << i;
  }

  // The schedule paid at most half the steps of the full-precision batch.
  // Step counts are deterministic, so the bar is exact.
  EXPECT_GE(fixed_outcome.stats.sampling_steps,
            2 * adaptive->total_sampling_steps);
}

TEST(RankingTest, PruningRefinesOnlySurvivors) {
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(WedgeBattery(), WedgeRanking());
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  // Between two tiers and the budget executed, tier 0 over every
  // candidate, with monotonically shrinking batches and real pruning
  // before the final tier.
  const size_t tiers = outcome->tier_stats.size();
  ASSERT_GE(tiers, 2u);
  ASSERT_LE(tiers, static_cast<size_t>(kRankingMaxTiers));
  EXPECT_EQ(outcome->tier_stats[0].requests, kWedges);
  for (size_t t = 1; t < tiers; ++t) {
    EXPECT_GE(outcome->tier_stats[t - 1].requests,
              outcome->tier_stats[t].requests)
        << t;
  }
  EXPECT_LT(outcome->tier_stats.back().requests, kWedges);

  int pruned = 0;
  for (const RankedCandidate& cand : outcome->candidates) {
    if (cand.pruned) {
      ++pruned;
      // A pruned candidate never reached the final tier.
      EXPECT_LT(cand.result.tier, static_cast<int>(tiers) - 1);
      EXPECT_EQ(std::count(outcome->top_k.begin(), outcome->top_k.end(),
                           cand.index),
                0);
    } else {
      EXPECT_GE(cand.result.ci_lo, 0.0);
      EXPECT_LE(cand.result.ci_lo, cand.result.value);
      EXPECT_GE(cand.result.ci_hi, cand.result.value);
    }
  }
  EXPECT_GT(pruned, 0);

  // The wedges have strictly increasing ground truth with a wide spread,
  // so the top-4 *set* is the four widest ones (order within the set
  // follows the ε-level estimates, which may swap near-ties).
  std::vector<size_t> top = outcome->top_k;
  std::sort(top.begin(), top.end());
  std::vector<size_t> expected = {12, 13, 14, 15};
  EXPECT_EQ(top, expected);
}

TEST(RankingTest, ExactCandidatesFreezeAtTierZero) {
  // kAuto on two-variable wedges dispatches to the exact 2-D engine: point
  // intervals at tier 0, zero sampling anywhere, true top-k.
  std::vector<MeasureRequest> reqs;
  for (int d = 0; d < 8; ++d) {
    reqs.push_back(MeasureRequest::Nu(Wedge(WedgeAngle(d)),
                                      Opts(Method::kAuto, 0.1, 7)));
  }
  RankingOptions ropts;
  ropts.k = 3;
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(std::move(reqs), ropts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  std::vector<size_t> expected = {7, 6, 5};
  EXPECT_EQ(outcome->top_k, expected);
  EXPECT_EQ(outcome->total_sampling_steps, 0);
  ASSERT_EQ(outcome->tier_stats.size(), 1u);
  for (const RankedCandidate& cand : outcome->candidates) {
    EXPECT_EQ(cand.result.tier, 0);
    EXPECT_EQ(cand.result.ci_lo, cand.result.value);
    EXPECT_EQ(cand.result.ci_hi, cand.result.value);
    EXPECT_NEAR(cand.result.value,
                WedgeAngle(static_cast<int>(cand.index)) / (2 * M_PI),
                1e-9);
  }
}

TEST(RankingTest, ValidationRejectsBadOptions) {
  MeasureService service;
  RankingService ranking(&service);

  RankingOptions bad_k;
  bad_k.k = 0;
  EXPECT_EQ(ranking.RankTopK(WedgeBattery(0.2), bad_k).status().code(),
            util::StatusCode::kInvalidArgument);

  RankingOptions bad_delta;
  bad_delta.delta = 1.0;
  EXPECT_EQ(ranking.RankTopK(WedgeBattery(0.2), bad_delta).status().code(),
            util::StatusCode::kInvalidArgument);

  // A candidate with degenerate (ε, δ) fails up front — no tier runs.
  std::vector<MeasureRequest> reqs = WedgeBattery(0.2);
  reqs[3].options.delta = 2.0;
  auto outcome = ranking.RankTopK(std::move(reqs), WedgeRanking());
  EXPECT_EQ(outcome.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.lifetime_stats().requests, 0);
}

TEST(RankingTest, ValidationRejectsBadSessionKnobs) {
  MeasureService service;
  RankingService ranking(&service);

  RankingOptions bad_per_estimate;
  bad_per_estimate.per_estimate_delta = 1.0;
  EXPECT_EQ(
      ranking.RankTopK(WedgeBattery(0.2), bad_per_estimate).status().code(),
      util::StatusCode::kInvalidArgument);

  RankingOptions negative_per_estimate;
  negative_per_estimate.per_estimate_delta = -0.1;
  EXPECT_EQ(ranking.RankTopK(WedgeBattery(0.2), negative_per_estimate)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.lifetime_stats().requests, 0);
}

TEST(RankingTest, NegativeKIsRejectedBeforeAnyWork) {
  MeasureService service;
  RankingService ranking(&service);
  RankingOptions negative_k;
  negative_k.k = -3;
  auto outcome = ranking.RankTopK(WedgeBattery(0.2), negative_k);
  EXPECT_EQ(outcome.status().code(), util::StatusCode::kInvalidArgument);
  // k = 0 and k < 0 both fail the same validation, with zero requests
  // executed — the nth_element path must never see a degenerate k.
  negative_k.k = 0;
  EXPECT_EQ(ranking.RankTopK(WedgeBattery(0.2), negative_k).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.lifetime_stats().requests, 0);
}

TEST(RankingTest, KLargerThanNRanksEveryCandidate) {
  // k > N is a trivial outcome, not an error: nobody can be pruned (the
  // threshold needs more than k active lower bounds), everyone refines to
  // final precision, and top_k holds all N candidates in certainty order.
  RankingOptions ropts = WedgeRanking();
  ropts.k = kWedges + 20;
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(WedgeBattery(), ropts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->top_k.size(), static_cast<size_t>(kWedges));
  for (const RankedCandidate& cand : outcome->candidates) {
    EXPECT_FALSE(cand.pruned) << cand.index;
  }
  for (size_t r = 1; r < outcome->top_k.size(); ++r) {
    const double prev = outcome->candidates[outcome->top_k[r - 1]].result.value;
    const double cur = outcome->candidates[outcome->top_k[r]].result.value;
    EXPECT_GE(prev, cur) << "rank " << r;
  }
}

TEST(RankingTest, EmptyCandidateListWithLargeKIsStillEmpty) {
  MeasureService service;
  RankingService ranking(&service);
  RankingOptions ropts;
  ropts.k = 5;
  auto outcome = ranking.RankTopK({}, ropts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->top_k.empty());
  EXPECT_TRUE(outcome->candidates.empty());
  EXPECT_TRUE(outcome->tier_stats.empty());
  EXPECT_EQ(outcome->total_sampling_steps, 0);
}

TEST(RankingTest, PruningCascadeNeverShrinksActiveSetBelowK) {
  // Aggressive setup: a final ε forty times finer than tier 0's, additive
  // intervals over a wide certainty spread and a tiny k, so pruning
  // cascades over several tiers. The k holders of the top lower bounds
  // always satisfy ci_hi >= ci_lo >= threshold, and the prune comparison is
  // strict, so the active set can never fall below min(n, k) — this test
  // locks that invariant against threshold rework.
  RankingOptions ropts;
  ropts.k = 2;
  ropts.delta = 0.1;
  std::vector<MeasureRequest> reqs = WedgeBattery(0.005);
  for (MeasureRequest& req : reqs) req.options.method = Method::kAfpras;
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(std::move(reqs), ropts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  int survivors = 0;
  for (const RankedCandidate& cand : outcome->candidates) {
    if (!cand.pruned) ++survivors;
  }
  EXPECT_GE(survivors, ropts.k);
  ASSERT_EQ(outcome->top_k.size(), 2u);
  std::vector<size_t> top = outcome->top_k;
  std::sort(top.begin(), top.end());
  std::vector<size_t> expected = {14, 15};
  EXPECT_EQ(top, expected);
  // Batches shrink monotonically; the cascade pruned someone early.
  EXPECT_GT(outcome->tier_stats.size(), 2u);
  for (size_t t = 1; t < outcome->tier_stats.size(); ++t) {
    EXPECT_GE(outcome->tier_stats[t - 1].requests,
              outcome->tier_stats[t].requests)
        << t;
  }
  EXPECT_LT(outcome->tier_stats.back().requests, kWedges);
}

TEST(RankingTest, DuplicateCandidatesGetBitIdenticalIntervalsAndTieOrder) {
  // Each wedge twice, identical formula / ε / seed: the request signatures
  // collide, so both copies must report bit-identical results, and the
  // final sort must break their exact value ties by ascending input index.
  std::vector<MeasureRequest> reqs;
  for (int d = 0; d < 8; ++d) {
    for (int copy = 0; copy < 2; ++copy) {
      reqs.push_back(MeasureRequest::Nu(
          Wedge(WedgeAngle(d)), Opts(Method::kFpras, kWedgeEpsilon, 100 + d)));
    }
  }
  RankingOptions ropts = WedgeRanking();
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(std::move(reqs), ropts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  for (size_t pair = 0; pair < 8; ++pair) {
    const MeasureResult& a = outcome->candidates[2 * pair].result;
    const MeasureResult& b = outcome->candidates[2 * pair + 1].result;
    EXPECT_EQ(a.value, b.value) << pair;
    EXPECT_EQ(a.ci_lo, b.ci_lo) << pair;
    EXPECT_EQ(a.ci_hi, b.ci_hi) << pair;
    EXPECT_EQ(outcome->candidates[2 * pair].pruned,
              outcome->candidates[2 * pair + 1].pruned)
        << pair;
  }
  // Top-4: both copies of the two widest wedges (which of the two pairs
  // leads follows the ε-level estimates), each pair adjacent and in
  // ascending input order — exact value ties break by index.
  ASSERT_EQ(outcome->top_k.size(), 4u);
  std::vector<size_t> top = outcome->top_k;
  std::sort(top.begin(), top.end());
  std::vector<size_t> expected = {12, 13, 14, 15};
  EXPECT_EQ(top, expected);
  EXPECT_EQ(outcome->top_k[0] + 1, outcome->top_k[1]);
  EXPECT_EQ(outcome->top_k[2] + 1, outcome->top_k[3]);
  // The memo actually deduplicated: the second copy of every executed
  // request was a cache hit.
  int64_t hits = 0;
  for (const BatchStats& stats : outcome->tier_stats) {
    hits += stats.request_cache_hits;
  }
  EXPECT_GT(hits, 0);
}

TEST(RankingTest, RequestErrorsPropagate) {
  // A nonlinear formula forced onto the FPRAS fails; the ranking surfaces
  // that status instead of a partial ranking.
  std::vector<MeasureRequest> reqs = WedgeBattery();
  reqs[5] = MeasureRequest::Nu(
      RealFormula::Cmp(Z(0) * Z(1) - C(1), CmpOp::kLt),
      Opts(Method::kFpras, 0.2, 42));
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK(std::move(reqs), WedgeRanking());
  EXPECT_EQ(outcome.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RankingTest, EmptyCandidateListYieldsEmptyOutcome) {
  MeasureService service;
  RankingService ranking(&service);
  auto outcome = ranking.RankTopK({}, RankingOptions{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->top_k.empty());
  EXPECT_TRUE(outcome->candidates.empty());
  EXPECT_TRUE(outcome->tier_stats.empty());
}

}  // namespace
}  // namespace mudb::service
