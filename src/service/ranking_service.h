// RankingService: adaptive-precision top-k certainty ranking.
//
// The paper's measure of certainty exists to *compare* candidate answers —
// "which tuples are most certain?" — yet evaluating all N candidates at the
// caller's final ε wastes nearly every sampling step on candidates that were
// never going to make the cut. The scheduler instead walks coarse → fine ε
// tiers: tier 0 runs at kRankingCoarseEpsilon, and every later tier's ε
// is chosen from the estimates the previous tier produced, until
// each survivor reaches its request's own ε. At every tier each surviving
// candidate is measured once through the MeasureService, its estimate
// carries the engine's confidence interval (multiplicative
// [est/(1+ε_t), est/(1−ε_t)] for the FPRAS, additive est ± ε_t for the
// AFPRAS family, a point for exact engines — MeasureResult::ci_lo/ci_hi),
// and every candidate whose upper bound falls strictly below the k-th
// largest lower bound is pruned; only the survivors pay for the next, finer
// tier. Tiers reuse the service's caches: repeated candidates hit the
// request memo and shared geometry hits the body cache within each tier.
//
// δ accounting: the schedule walks at most T = kRankingMaxTiers tiers, so it
// performs at most N·T estimates and every estimate runs at
// δ_t = δ_total / (N·T) (RankingTierDelta). By the union bound, over the
// δ-consuming engines (the AFPRAS family, whose Hoeffding sample count
// grows with ln(1/δ)) all intervals hold simultaneously with probability
// >= 1 − δ_total, and then every pruned candidate's true ν really is below
// k other candidates' true ν — no true top-k candidate (up to final-ε
// resolution: candidates whose true values the final intervals cannot
// separate are interchangeable) is ever pruned. The FPRAS has no δ knob — ε
// controls its interval's width, not its constant success probability
// (Thm 7.1) — so for kFpras candidates each interval holds with that
// per-estimate probability and the pruning guarantee is per-estimate, not
// union-bounded. Note interval soundness bounds TRUE values: exact
// agreement with a fixed-precision full batch (which ranks by noisy final-ε
// estimates) additionally needs the workload's estimates to separate the
// sets, as ranking_test's deterministic wide-spread wedge battery does.
//
// Determinism contract: the returned ranking is a pure function of the
// candidate list and options. Each tier is one MeasureService batch — bit-
// deterministic per request for any thread count, batch order, and
// cache state — and the pruning decision and the next tier's ε read only
// the tier-t estimates, in candidate index order, with ties broken by input
// index; timing never enters. Corollary: permuting the input permutes the
// outcome by exactly that permutation. ranking_test.cc locks this in across
// num_threads ∈ {1, 2, 8} and shuffled candidate orders.

#ifndef MUDB_SRC_SERVICE_RANKING_SERVICE_H_
#define MUDB_SRC_SERVICE_RANKING_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/util/status.h"

namespace mudb::service {

/// The schedule's tier budget: the δ split pays for this many tiers
/// (the coarsest and the final included), and the schedule never walks more.
inline constexpr int kRankingMaxTiers = 6;

/// Tier 0's ε. Later tiers are chosen from the estimates; a request whose
/// own ε is at or above it runs at its final precision at tier 0.
inline constexpr double kRankingCoarseEpsilon = 0.2;

struct RankingOptions {
  /// How many most-certain candidates to return.
  int k = 1;
  /// Total failure budget for the whole ranking decision, split across the
  /// at most N·kRankingMaxTiers estimates via the union bound
  /// (RankingTierDelta). Each request's own options.delta is overridden by
  /// the split.
  double delta = 0.05;
  /// When nonzero (must lie in (0, 1)): every tier request runs at exactly
  /// this δ instead of the δ/(N·T) split. The caller owns the union-bound
  /// arithmetic — the point of the knob is that request signatures then no
  /// longer depend on N, so a RankingSession keeps its warm estimates
  /// across inserts and removals (with the default split, any change to N
  /// re-budgets every estimate and invalidates everything).
  double per_estimate_delta = 0.0;
};

/// The per-estimate δ every tier request runs at: per_estimate_delta when
/// set, else δ / (N·kRankingMaxTiers). Exposed so tests can construct
/// fixed-precision baselines whose final-tier requests are bit-identical to
/// the ranking's.
double RankingTierDelta(const RankingOptions& options, size_t num_candidates);

/// Per-candidate outcome, in input order.
struct RankedCandidate {
  /// Position in the input candidate list.
  size_t index = 0;
  /// The candidate's freshest evaluation — final-precision unless pruned:
  /// value, [ci_lo, ci_hi], engine accounting, with MeasureResult::tier
  /// stamped to the ladder tier it ran at (0 = coarsest).
  measure::MeasureResult result;
  /// True when the candidate was eliminated before reaching its final ε:
  /// its upper bound fell below the k-th largest lower bound.
  bool pruned = false;
};

struct RankingOutcome {
  /// The top-k candidate indices, most certain first (sorted by final
  /// estimate, ties broken by input index). Size min(k, N).
  std::vector<size_t> top_k;
  /// Per-candidate detail, positionally aligned with the input.
  std::vector<RankedCandidate> candidates;
  /// One MeasureService batch per executed tier — the per-tier accounting
  /// (requests, cache hits, sampling steps, wall time).
  std::vector<BatchStats> tier_stats;
  /// Σ over tier_stats: the hit-and-run steps the adaptive schedule paid
  /// (ranking_test holds it to half a fixed-precision full batch's).
  int64_t total_sampling_steps = 0;
  /// Flight-recorder handle: trace id of this ranking's span tree when
  /// tracing was enabled (obs::CollectTrace fetches it), 0 otherwise.
  uint64_t trace_id = 0;
};

/// The ε-ladder scheduler on top of a MeasureService. Stateless besides the
/// borrowed service (not owned); one RankTopK call at a time per service,
/// as with RunBatch. Implemented as a one-shot RankingSession
/// (ranking_session.h): callers that re-rank as the database mutates or
/// candidates stream in should hold a session instead — Rerank(delta)
/// reuses every estimate whose content signature survived the delta.
class RankingService {
 public:
  explicit RankingService(MeasureService* service) : service_(service) {}

  /// Ranks the candidates and returns the top-k most certain. Fails with
  /// InvalidArgument on malformed options (k < 1, ε/δ outside their
  /// ranges — every candidate's MeasureOptions is validated up front) and
  /// propagates the first failing candidate's status (lowest input index)
  /// if a request errors.
  util::StatusOr<RankingOutcome> RankTopK(
      std::vector<MeasureRequest> candidates,
      const RankingOptions& options = {});

 private:
  MeasureService* service_;
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_RANKING_SERVICE_H_
