// Tests for the incremental re-ranking session
// (src/service/ranking_session.h): cold-session equivalence with RankTopK,
// the rerank determinism contract (rerank outcome ≡ cold rank of the same
// final state, at any thread count, for any delta sequence), the cost of a
// one-candidate delta (at most a quarter of the cold schedule's sampling
// steps), content-keyed invalidation (identical-content updates, and
// order-preserving renumberings of it, keep every warm tier), warm tiers
// served by the service's request memo to any session on that service,
// streaming inserts/removals under
// per_estimate_delta, the tier schedule and its tier budget, all-or-nothing
// delta failures (a repeated update id included), and introspection.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/ranking_service.h"
#include "src/service/ranking_session.h"

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

// The planar wedge of polar angles (0, alpha), alpha < π: ν = alpha / (2π).
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

MeasureRequest WedgeRequest(int d, double epsilon = kWedgeEpsilon) {
  return MeasureRequest::Nu(Wedge(WedgeAngle(d)),
                            Opts(Method::kFpras, epsilon, 100 + d));
}

std::vector<MeasureRequest> WedgeBattery(double epsilon = kWedgeEpsilon) {
  std::vector<MeasureRequest> reqs;
  reqs.reserve(kWedges);
  for (int d = 0; d < kWedges; ++d) reqs.push_back(WedgeRequest(d, epsilon));
  return reqs;
}

RankingOptions WedgeRanking() {
  RankingOptions opts;
  opts.k = 4;
  opts.delta = 0.1;
  return opts;
}

// Streaming variant: per-estimate δ so signatures survive N changes.
RankingOptions StreamingRanking() {
  RankingOptions opts = WedgeRanking();
  opts.per_estimate_delta = 0.01;
  return opts;
}

RankingDelta InsertAll(std::vector<MeasureRequest> reqs) {
  RankingDelta delta;
  delta.inserts = std::move(reqs);
  return delta;
}

// The determinism-contract fields: everything except accounting.
void ExpectSameRanking(const RerankOutcome& a, const RerankOutcome& b,
                       bool compare_ids = true) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  if (compare_ids) {
    EXPECT_EQ(a.top_k, b.top_k);
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const SessionCandidate& ca = a.candidates[i];
    const SessionCandidate& cb = b.candidates[i];
    EXPECT_EQ(ca.result.value, cb.result.value) << i;
    EXPECT_EQ(ca.result.ci_lo, cb.result.ci_lo) << i;
    EXPECT_EQ(ca.result.ci_hi, cb.result.ci_hi) << i;
    EXPECT_EQ(ca.result.tier, cb.result.tier) << i;
    EXPECT_EQ(ca.result.epsilon_used, cb.result.epsilon_used) << i;
    EXPECT_EQ(ca.pruned, cb.pruned) << i;
    EXPECT_EQ(ca.frozen, cb.frozen) << i;
  }
}

TEST(RankingSessionTest, ColdSessionMatchesRankTopK) {
  MeasureService session_service;
  RankingSession session(&session_service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();

  MeasureService oneshot_service;
  RankingService oneshot_ranking(&oneshot_service);
  auto oneshot = oneshot_ranking.RankTopK(WedgeBattery(), WedgeRanking());
  ASSERT_TRUE(oneshot.ok()) << oneshot.status();

  // Ids of a fresh session are dense input indices, so the outcomes align
  // positionally — and a cold session pays exactly what RankTopK pays.
  ASSERT_EQ(cold->candidates.size(), oneshot->candidates.size());
  ASSERT_EQ(cold->top_k.size(), oneshot->top_k.size());
  for (size_t r = 0; r < cold->top_k.size(); ++r) {
    EXPECT_EQ(cold->top_k[r], static_cast<CandidateId>(oneshot->top_k[r]));
  }
  for (size_t i = 0; i < cold->candidates.size(); ++i) {
    EXPECT_EQ(cold->candidates[i].id, static_cast<CandidateId>(i));
    EXPECT_EQ(cold->candidates[i].result.value,
              oneshot->candidates[i].result.value)
        << i;
    EXPECT_EQ(cold->candidates[i].result.ci_lo,
              oneshot->candidates[i].result.ci_lo)
        << i;
    EXPECT_EQ(cold->candidates[i].result.ci_hi,
              oneshot->candidates[i].result.ci_hi)
        << i;
    EXPECT_EQ(cold->candidates[i].result.tier,
              oneshot->candidates[i].result.tier)
        << i;
    EXPECT_EQ(cold->candidates[i].pruned, oneshot->candidates[i].pruned) << i;
  }
  ASSERT_EQ(cold->tier_stats.size(), oneshot->tier_stats.size());
  for (size_t t = 0; t < cold->tier_stats.size(); ++t) {
    EXPECT_EQ(cold->tier_stats[t].requests, oneshot->tier_stats[t].requests)
        << t;
  }
  EXPECT_EQ(cold->total_sampling_steps, oneshot->total_sampling_steps);
  EXPECT_EQ(cold->warm_hits, 0);
  EXPECT_EQ(cold->invalidated, 0);
  ASSERT_EQ(cold->inserted_ids.size(), static_cast<size_t>(kWedges));
}

TEST(RankingSessionTest, EmptyRerankReplaysEntirelyWarm) {
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_GT(cold->total_sampling_steps, 0);

  auto replay = session.Rerank();
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectSameRanking(*cold, *replay);
  EXPECT_EQ(replay->total_sampling_steps, 0);
  EXPECT_EQ(replay->warm_hits, replay->evaluations);
  EXPECT_EQ(replay->invalidated, 0);
  // The replay walks the same tiers, and the request memo answers every
  // evaluation of each one without sampling.
  ASSERT_EQ(replay->tier_stats.size(), cold->tier_stats.size());
  for (size_t t = 0; t < replay->tier_stats.size(); ++t) {
    const BatchStats& stats = replay->tier_stats[t];
    EXPECT_EQ(stats.requests, cold->tier_stats[t].requests) << t;
    EXPECT_EQ(stats.requests, stats.request_cache_hits) << t;
    EXPECT_EQ(stats.sampling_steps, 0) << t;
  }
}

TEST(RankingSessionTest, SecondSessionOnOneServiceIsEntirelyWarm) {
  // Warm tiers live in the service's request memo, not in a session: a
  // second session ranking the same battery on the same service samples
  // nothing, and warm_hits counts every evaluation the memo served.
  MeasureService service;
  RankingSession first(&service, WedgeRanking());
  auto cold = first.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_GT(cold->total_sampling_steps, 0);

  RankingSession second(&service, WedgeRanking());
  auto warm = second.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ExpectSameRanking(*cold, *warm);
  EXPECT_EQ(warm->evaluations, cold->evaluations);
  EXPECT_GT(warm->evaluations, 0);
  EXPECT_EQ(warm->total_sampling_steps, 0);
  EXPECT_EQ(warm->warm_hits, warm->evaluations);
}

TEST(RankingSessionTest, IdenticalContentUpdateIsANoOp) {
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();

  // Re-send candidate 5's exact content: same grounded formula, same
  // options. Content-keyed invalidation must keep every warm tier.
  RankingDelta delta;
  delta.updates.emplace_back(5, WedgeRequest(5));
  auto rerank = session.Rerank(std::move(delta));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  EXPECT_EQ(rerank->invalidated, 0);
  EXPECT_EQ(rerank->total_sampling_steps, 0);
  EXPECT_EQ(rerank->warm_hits, rerank->evaluations);
  ExpectSameRanking(*cold, *rerank);
}

TEST(RankingSessionTest, RenumberedContentUpdateIsANoOp) {
  // A database write shifts the z-indices of the nulls after the one it
  // refines, but not their order. Re-send every candidate so renumbered:
  // the compacted content, and so every signature, is unchanged, and the
  // update must keep every warm tier.
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();

  RankingDelta delta;
  for (int d = 0; d < kWedges; ++d) {
    MeasureRequest shifted = WedgeRequest(d);
    shifted.formula = shifted.formula->RemapVariables({d + 3, 2 * d + 40});
    delta.updates.emplace_back(d, std::move(shifted));
  }
  auto rerank = session.Rerank(std::move(delta));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  EXPECT_EQ(rerank->invalidated, 0);
  EXPECT_EQ(rerank->total_sampling_steps, 0);
  ASSERT_FALSE(rerank->tier_stats.empty());
  for (const BatchStats& tier : rerank->tier_stats) {
    EXPECT_EQ(tier.request_cache_hits, tier.requests);
    EXPECT_EQ(tier.sampling_steps, 0);
  }
  EXPECT_EQ(rerank->warm_hits, rerank->evaluations);
  ExpectSameRanking(*cold, *rerank);
}

TEST(RankingSessionTest, MutationRerankIsBitIdenticalToColdRankOfFinalState) {
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();

  // Two content changes in turn: tail candidate 5 to a wider wedge, then
  // top-k member 14 by 0.02 rad. Each delta costs at most a quarter of the
  // cold schedule's steps; step counts are deterministic, so the bar is
  // exact.
  const std::pair<int, double> mutations[] = {{5, 0.07}, {14, 0.02}};
  std::vector<MeasureRequest> final_state = WedgeBattery();
  for (const auto& [d, shift] : mutations) {
    MeasureRequest mutated = WedgeRequest(d);
    mutated.formula = Wedge(WedgeAngle(d) + shift);
    final_state[d] = mutated;
    RankingDelta delta;
    delta.updates.emplace_back(d, mutated);
    auto rerank = session.Rerank(std::move(delta));
    ASSERT_TRUE(rerank.ok()) << rerank.status();
    EXPECT_EQ(rerank->invalidated, 1) << d;
    EXPECT_GT(rerank->warm_hits, 0) << d;
    EXPECT_LE(4 * rerank->total_sampling_steps, cold->total_sampling_steps)
        << d;

    // A cold ranking of the same final state must agree bit-for-bit — on a
    // single-threaded service and on a wide pool alike.
    for (int threads : {1, 8}) {
      ServiceOptions sopts;
      sopts.num_threads = threads;
      MeasureService cold_service(sopts);
      RankingSession cold_session(&cold_service, WedgeRanking());
      auto reference = cold_session.Rerank(InsertAll(final_state));
      ASSERT_TRUE(reference.ok()) << reference.status();
      ExpectSameRanking(*reference, *rerank);
    }
  }
}

TEST(RankingSessionTest, DeltaSequenceDoesNotChangeTheOutcome) {
  // Two sessions reach the same final (id → content) map along different
  // delta sequences; the contract says the rankings agree bit-for-bit.
  RankingOptions ropts = StreamingRanking();
  MeasureRequest mutated = WedgeRequest(7);
  mutated.formula = Wedge(WedgeAngle(7) + 0.05);

  // Session A: insert all, then remove id 3, then mutate id 7.
  MeasureService service_a;
  RankingSession a(&service_a, ropts);
  ASSERT_TRUE(a.Rerank(InsertAll(WedgeBattery())).ok());
  RankingDelta remove3;
  remove3.removals.push_back(3);
  ASSERT_TRUE(a.Rerank(std::move(remove3)).ok());
  RankingDelta mutate7;
  mutate7.updates.emplace_back(7, mutated);
  auto outcome_a = a.Rerank(std::move(mutate7));
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status();

  // Session B: insert all, then one combined delta (remove 3, mutate 7).
  MeasureService service_b;
  RankingSession b(&service_b, ropts);
  ASSERT_TRUE(b.Rerank(InsertAll(WedgeBattery())).ok());
  RankingDelta combined;
  combined.removals.push_back(3);
  combined.updates.emplace_back(7, mutated);
  auto outcome_b = b.Rerank(std::move(combined));
  ASSERT_TRUE(outcome_b.ok()) << outcome_b.status();

  ExpectSameRanking(*outcome_a, *outcome_b);
}

TEST(RankingSessionTest, PerEstimateDeltaKeepsWarmStateAcrossInserts) {
  // With per_estimate_delta, signatures are independent of N: streaming
  // inserts/removals keep every untouched candidate's warm tiers.
  MeasureService service;
  RankingSession session(&service, StreamingRanking());
  std::vector<MeasureRequest> initial;
  for (int d = 0; d < 12; ++d) initial.push_back(WedgeRequest(d));
  auto cold = session.Rerank(InsertAll(std::move(initial)));
  ASSERT_TRUE(cold.ok()) << cold.status();

  RankingDelta delta;
  for (int d = 12; d < kWedges; ++d) delta.inserts.push_back(WedgeRequest(d));
  delta.removals.push_back(2);
  auto rerank = session.Rerank(std::move(delta));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  EXPECT_EQ(session.num_candidates(), 15u);
  EXPECT_GT(rerank->warm_hits, 0);
  EXPECT_LT(rerank->total_sampling_steps, cold->total_sampling_steps);

  // Contract check: a cold session over the same final state agrees.
  MeasureService cold_service;
  RankingSession cold_session(&cold_service, StreamingRanking());
  std::vector<MeasureRequest> final_state;
  for (int d = 0; d < kWedges; ++d) {
    if (d != 2) final_state.push_back(WedgeRequest(d));
  }
  auto reference = cold_session.Rerank(InsertAll(std::move(final_state)));
  ASSERT_TRUE(reference.ok()) << reference.status();
  // Ids differ (the session skips 2 and appends 12..15 later), so compare
  // positionally: both outcomes list candidates in ascending id order,
  // which is insertion order here.
  ExpectSameRanking(*reference, *rerank, /*compare_ids=*/false);
}

TEST(RankingSessionTest, DefaultDeltaSplitInvalidatesOnCardinalityChange) {
  // The documented caveat: with the δ/(N·T) split an insert re-budgets
  // every request's δ, so no signature survives — correct, but fully cold.
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  std::vector<MeasureRequest> initial;
  for (int d = 0; d < 8; ++d) initial.push_back(WedgeRequest(d));
  ASSERT_TRUE(session.Rerank(InsertAll(std::move(initial))).ok());

  RankingDelta delta;
  delta.inserts.push_back(WedgeRequest(8));
  auto rerank = session.Rerank(std::move(delta));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  EXPECT_EQ(rerank->warm_hits, 0);
  EXPECT_GT(rerank->total_sampling_steps, 0);
}

TEST(RankingSessionTest, ScheduleIsDeterministicAndSeparatesTopK) {
  // A final ε a quarter of tier 0's leaves the schedule room to choose an
  // intermediate tier.
  RankingOptions ropts = WedgeRanking();

  RerankOutcome reference;
  for (int threads : {1, 8}) {
    ServiceOptions sopts;
    sopts.num_threads = threads;
    MeasureService service(sopts);
    RankingSession session(&service, ropts);
    auto outcome = session.Rerank(InsertAll(WedgeBattery(0.05)));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_LE(outcome->tier_stats.size(),
              static_cast<size_t>(kRankingMaxTiers));
    if (threads == 1) {
      reference = *outcome;
    } else {
      ExpectSameRanking(reference, *outcome);
      EXPECT_EQ(reference.total_sampling_steps, outcome->total_sampling_steps);
    }
  }

  // The wide wedge spread separates the true top-4. Every unpruned
  // candidate finished on its own requested engine at its own ε, so a
  // survivor's final evaluation is the same bit-identical request a
  // fixed-precision batch at the tier δ would issue.
  std::vector<CandidateId> top = reference.top_k;
  std::sort(top.begin(), top.end());
  std::vector<CandidateId> expected = {12, 13, 14, 15};
  EXPECT_EQ(top, expected);
  for (const SessionCandidate& cand : reference.candidates) {
    if (cand.pruned) continue;
    EXPECT_TRUE(cand.frozen) << cand.id;
    EXPECT_EQ(cand.result.method_used, Method::kFpras) << cand.id;
    EXPECT_EQ(cand.result.epsilon_used, 0.05) << cand.id;
  }
}

TEST(RankingSessionTest, ScheduleStopsAtTheTierBudget) {
  // A tight final ε and k = 1 over additive-interval wedges whose two
  // widest differ by only 0.1 / (2π): every intermediate tier still finds
  // candidates worth pruning, so only the tier budget the δ split paid for
  // ends the walk. Without the cap this battery walks a seventh tier.
  std::vector<MeasureRequest> reqs;
  for (int d = 0; d < kWedges; ++d) {
    reqs.push_back(MeasureRequest::Nu(Wedge(0.2 + 0.1 * d),
                                      Opts(Method::kAfpras, 0.003, 100 + d)));
  }
  RankingOptions ropts;
  ropts.k = 1;
  ropts.delta = 0.1;

  RerankOutcome reference;
  for (int threads : {1, 8}) {
    ServiceOptions sopts;
    sopts.num_threads = threads;
    MeasureService service(sopts);
    RankingSession session(&service, ropts);
    auto outcome = session.Rerank(InsertAll(reqs));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (threads == 1) {
      reference = *outcome;
    } else {
      ExpectSameRanking(reference, *outcome);
      EXPECT_EQ(reference.total_sampling_steps, outcome->total_sampling_steps);
    }
  }

  ASSERT_EQ(reference.tier_stats.size(), static_cast<size_t>(kRankingMaxTiers));
  const std::vector<int64_t> expected_requests = {16, 16, 9, 5, 3, 2};
  for (size_t t = 0; t < reference.tier_stats.size(); ++t) {
    EXPECT_EQ(reference.tier_stats[t].requests, expected_requests[t]) << t;
  }
  EXPECT_EQ(reference.top_k, std::vector<CandidateId>{15});
  int survivors = 0;
  for (const SessionCandidate& cand : reference.candidates) {
    if (cand.pruned) continue;
    ++survivors;
    EXPECT_TRUE(cand.frozen) << cand.id;
    EXPECT_EQ(cand.result.tier, kRankingMaxTiers - 1) << cand.id;
    EXPECT_EQ(cand.result.epsilon_used, 0.003) << cand.id;
    EXPECT_EQ(cand.result.method_used, Method::kAfpras) << cand.id;
  }
  EXPECT_EQ(survivors, 2);
}

TEST(RankingSessionTest, BadDeltasAreAllOrNothing) {
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();

  // Unknown removal id.
  RankingDelta unknown_removal;
  unknown_removal.removals.push_back(999);
  EXPECT_EQ(session.Rerank(std::move(unknown_removal)).status().code(),
            util::StatusCode::kNotFound);

  // Unknown update id.
  RankingDelta unknown_update;
  unknown_update.updates.emplace_back(999, WedgeRequest(0));
  EXPECT_EQ(session.Rerank(std::move(unknown_update)).status().code(),
            util::StatusCode::kNotFound);

  // One id updated twice, even when the second update restores its
  // original content, fails before anything commits and names the id.
  RankingDelta twice;
  twice.updates.emplace_back(5, WedgeRequest(0));
  twice.updates.emplace_back(5, WedgeRequest(5));
  auto twice_outcome = session.Rerank(std::move(twice));
  EXPECT_EQ(twice_outcome.status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_NE(twice_outcome.status().message().find("candidate 5"),
            std::string::npos)
      << twice_outcome.status();

  // A valid removal bundled with an invalid insert must not be applied.
  RankingDelta mixed;
  mixed.removals.push_back(3);
  MeasureRequest bad = WedgeRequest(0);
  bad.options.delta = 2.0;
  mixed.inserts.push_back(std::move(bad));
  auto mixed_outcome = session.Rerank(std::move(mixed));
  EXPECT_EQ(mixed_outcome.status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_candidates(), static_cast<size_t>(kWedges));

  // The session is untouched: an empty rerank replays entirely warm.
  auto replay = session.Rerank();
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectSameRanking(*cold, *replay);
  EXPECT_EQ(replay->total_sampling_steps, 0);
}

TEST(RankingSessionTest, EvaluationFailureLeavesTheSessionRecoverable) {
  MeasureService service;
  RankingSession session(&service, WedgeRanking());
  ASSERT_TRUE(session.Rerank(InsertAll(WedgeBattery())).ok());

  // A nonlinear formula forced onto the FPRAS fails during evaluation:
  // the delta is applied (validation passed), the rerank errors out.
  RankingDelta delta;
  delta.inserts.push_back(MeasureRequest::Nu(
      RealFormula::Cmp(Z(0) * Z(1) - C(1), CmpOp::kLt),
      Opts(Method::kFpras, 0.2, 42)));
  auto broken = session.Rerank(std::move(delta));
  EXPECT_EQ(broken.status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_EQ(session.num_candidates(), static_cast<size_t>(kWedges) + 1);

  // Removing the offender restores a working session, and the earlier
  // candidates' tiers are still warm.
  RankingDelta repair;
  repair.removals.push_back(static_cast<CandidateId>(kWedges));
  auto repaired = session.Rerank(std::move(repair));
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_GT(repaired->warm_hits, 0);
}

TEST(RankingSessionTest, IntrospectionTracksSlots) {
  MeasureService service;
  RankingSession session(&service, StreamingRanking());
  EXPECT_EQ(session.num_candidates(), 0u);

  auto cold = session.Rerank(InsertAll(WedgeBattery()));
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(session.num_candidates(), static_cast<size_t>(kWedges));

  // Removal releases the slot.
  RankingDelta remove7;
  remove7.removals.push_back(7);
  ASSERT_TRUE(session.Rerank(std::move(remove7)).ok());
  EXPECT_EQ(session.num_candidates(), static_cast<size_t>(kWedges) - 1);

  // Ids are never reused: the next insert continues the counter.
  RankingDelta insert;
  insert.inserts.push_back(WedgeRequest(7));
  auto rerank = session.Rerank(std::move(insert));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  ASSERT_EQ(rerank->inserted_ids.size(), 1u);
  EXPECT_EQ(rerank->inserted_ids[0], static_cast<CandidateId>(kWedges));
}

TEST(RankingSessionTest, DuplicateCandidatesStayBitIdenticalThroughRerank) {
  // Two copies of every wedge, streaming options; mutate ONE copy of
  // wedge 5 and check the other copy keeps its warm, bit-identical result.
  MeasureService service;
  RankingSession session(&service, StreamingRanking());
  std::vector<MeasureRequest> reqs;
  for (int d = 0; d < 8; ++d) {
    reqs.push_back(WedgeRequest(d));
    reqs.push_back(WedgeRequest(d));
  }
  auto cold = session.Rerank(InsertAll(std::move(reqs)));
  ASSERT_TRUE(cold.ok()) << cold.status();
  for (size_t pair = 0; pair < 8; ++pair) {
    const MeasureResult& a = cold->candidates[2 * pair].result;
    const MeasureResult& b = cold->candidates[2 * pair + 1].result;
    EXPECT_EQ(a.value, b.value) << pair;
    EXPECT_EQ(a.ci_lo, b.ci_lo) << pair;
    EXPECT_EQ(a.ci_hi, b.ci_hi) << pair;
  }

  MeasureRequest mutated = WedgeRequest(5);
  mutated.formula = Wedge(WedgeAngle(5) + 0.3);
  RankingDelta delta;
  delta.updates.emplace_back(10, mutated);
  auto rerank = session.Rerank(std::move(delta));
  ASSERT_TRUE(rerank.ok()) << rerank.status();
  EXPECT_EQ(rerank->invalidated, 1);
  // The untouched twin (id 11) kept its bits.
  EXPECT_EQ(rerank->candidates[11].result.value,
            cold->candidates[11].result.value);
  EXPECT_EQ(rerank->candidates[11].result.ci_lo,
            cold->candidates[11].result.ci_lo);
  EXPECT_EQ(rerank->candidates[11].result.ci_hi,
            cold->candidates[11].result.ci_hi);
  // And the whole rerank matches a cold rank of the final state.
  MeasureService cold_service;
  RankingSession cold_session(&cold_service, StreamingRanking());
  std::vector<MeasureRequest> final_state;
  for (int d = 0; d < 8; ++d) {
    for (int copy = 0; copy < 2; ++copy) {
      if (d == 5 && copy == 0) {
        final_state.push_back(mutated);
      } else {
        final_state.push_back(WedgeRequest(d));
      }
    }
  }
  auto reference = cold_session.Rerank(InsertAll(std::move(final_state)));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameRanking(*reference, *rerank);
}

}  // namespace
}  // namespace mudb::service
