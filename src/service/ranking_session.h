// RankingSession: incremental / streaming re-ranking with content-keyed
// delta invalidation.
//
// The one-shot scheduler (ranking_service.h) recomputes every ranking from
// scratch, but the interactive workload mutates: the database refines nulls,
// candidates stream in and drop out, and after each change almost every
// tuple's certainty interval is exactly what it was. A RankingSession keeps
// candidates across calls and exposes Rerank(RankingDelta) — inserts,
// removals, and body mutations — so an update costs a small fraction of a
// cold ranking (ranking_session_test holds one-candidate deltas to a
// quarter of the cold ranking's sampling steps).
//
// How incrementality works — replay, don't patch. Every tier evaluation the
// ladder performs is a pure function of its request signature (request_key.h:
// compacted formula content × method × ε × δ × seed), and the
// MeasureService memoizes results by that signature. Rerank re-runs the
// full ladder decision procedure over the current candidate set from tier
// 0 — pruning thresholds, freezes, and the tier schedule are all
// recomputed — and sends every tier's unfinished survivors to
// MeasureService::RunBatch. Each evaluation whose signature is warm is a
// request-memo hit (bit-identical to recomputation, zero sampling steps);
// only signatures the service has never seen are sampled. The decision
// procedure itself costs microseconds; the samples are the expense, and
// those are what the memo elides. The session keeps no memo of its own.
//
// Invalidation is content-keyed, not positional and not wall-clock: a
// mutated candidate's new grounded formula produces new signatures, so its
// stale results are simply never looked up again; a mutation that grounds
// to the identical content, up to an order-preserving renumbering of its
// variables, is a no-op and keeps every warm interval. That is the common
// case of a database write: refining one null shifts the z-indices of every
// later null, but not their order, so only the answers that read the
// refined null are invalidated.
// Untouched candidates keep their warm tiers and pay nothing — unless the
// ranking's pruning threshold moved enough that the replay walks them
// through a tier they never ran before, in which case exactly those new
// tiers are sampled.
//
// What stays warm: the service's request memo is a bounded LRU
// (MeasureService holds 4096 results), shared by every session and batch
// on that service. Traffic that pushes a session's warm tiers out of it
// costs a bit-identical re-sample on the next Rerank — never a different
// result — and the memory a session pins is bounded by the memo, not by
// every signature its live candidates ever ran.
//
// Determinism contract (the rerank contract): top_k, and every candidate's
// result / pruned / frozen fields, are a pure function of the session's
// final (id → candidate content) map and the options — independent of
// thread count, batch order, and the delta sequence that produced the
// state. Corollary: they are bit-identical to a cold ranking of the same
// final candidate set (a fresh session, or RankTopK when ids are dense) —
// ranking_session_test asserts this at 1 and 8 threads.
// Only the schedule accounting (tier_stats, warm_hits,
// total_sampling_steps) depends on history — this session's and every other
// caller's on the same service: it reports what THIS call paid.
//
// One caveat the contract depends on: with the default δ/(N·T) split, a
// delta that changes N re-budgets every request's δ, which changes every
// signature — correct, but a full recompute. Streaming workloads that
// insert/remove should set RankingOptions::per_estimate_delta so δ (and
// hence every signature) is independent of N.
//
// Not thread-safe: one Rerank at a time, like RunBatch/RankTopK.

#ifndef MUDB_SRC_SERVICE_RANKING_SESSION_H_
#define MUDB_SRC_SERVICE_RANKING_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/convex/canonical.h"
#include "src/measure/measure.h"
#include "src/service/measure_service.h"
#include "src/service/ranking_service.h"
#include "src/util/status.h"

namespace mudb::service {

/// Stable handle for one candidate in a session. Assigned by Rerank in
/// insert order from a monotonic counter; never reused.
using CandidateId = uint64_t;

/// One batch of changes. Applied atomically (all-or-nothing) in the order
/// removals → updates → inserts; an id unknown at its point of application
/// fails the whole delta with NotFound, and an id updated twice fails it
/// with InvalidArgument, leaving the session untouched.
struct RankingDelta {
  /// New candidates; ids are assigned in order and returned in
  /// RerankOutcome::inserted_ids.
  std::vector<MeasureRequest> inserts;
  /// Candidates to drop.
  std::vector<CandidateId> removals;
  /// Body mutations: the candidate's request is replaced wholesale (the
  /// grounded content decides invalidation — an update that grounds to the
  /// same signature, such as an order-preserving renumbering of the same
  /// formula, keeps every warm estimate).
  std::vector<std::pair<CandidateId, MeasureRequest>> updates;
};

/// Per-candidate outcome of one Rerank, in ascending id order. The result /
/// pruned / frozen fields obey the rerank determinism contract (pure
/// function of final state); see the file comment.
struct SessionCandidate {
  CandidateId id = 0;
  /// Freshest evaluation at the current content: value, [ci_lo, ci_hi],
  /// tier, epsilon_used, engine accounting.
  measure::MeasureResult result;
  /// Eliminated before reaching its final ε this rerank.
  bool pruned = false;
  /// Reached its own final precision (or an exact engine froze it).
  bool frozen = false;
};

struct RerankOutcome {
  /// The top-k candidate ids, most certain first (ties by ascending id).
  std::vector<CandidateId> top_k;
  /// Every live candidate, ascending id.
  std::vector<SessionCandidate> candidates;
  /// Ids assigned to this delta's inserts, positionally aligned.
  std::vector<CandidateId> inserted_ids;
  /// Accounting for what THIS call executed (history-dependent): one
  /// RunBatch per tier the replay walked. A warm evaluation counts as a
  /// request that hit the request memo, so an all-warm tier reports
  /// requests == request_cache_hits and zero sampling steps.
  std::vector<BatchStats> tier_stats;
  /// Hit-and-run steps this call actually sampled (Σ tier_stats).
  int64_t total_sampling_steps = 0;
  /// Tier evaluations the ladder consumed (Σ tier_stats[t].requests), and
  /// how many of them the request memo served without sampling
  /// (Σ tier_stats[t].request_cache_hits).
  int64_t evaluations = 0;
  int64_t warm_hits = 0;
  /// Updated candidates whose new content invalidated their warm state
  /// (an update that grounds to identical content does not count).
  int64_t invalidated = 0;
  /// Flight-recorder handle: trace id of this rerank's span tree when
  /// tracing was enabled (obs::CollectTrace fetches it), 0 otherwise.
  uint64_t trace_id = 0;
};

/// Incremental re-ranking session over a borrowed MeasureService. See the
/// file comment for the replay design and the determinism contract.
class RankingSession {
 public:
  /// `service` outlives the session; `options` are validated on every
  /// Rerank (so a default-constructed session with bad options fails
  /// loudly, not at construction).
  RankingSession(MeasureService* service, RankingOptions options)
      : service_(service), options_(options) {}

  RankingSession(const RankingSession&) = delete;
  RankingSession& operator=(const RankingSession&) = delete;

  /// Applies `delta`, then ranks the surviving candidates. On any error —
  /// invalid options, an unknown or repeated id, a request without a
  /// formula or one that fails to evaluate — the returned outcome is the
  /// error status; delta validation failures leave the session untouched,
  /// while an evaluation failure leaves the delta applied and every tier
  /// completed so far warm (fix or remove the offending candidate and
  /// Rerank again).
  util::StatusOr<RerankOutcome> Rerank(RankingDelta delta = {});

  /// Live candidate count.
  size_t num_candidates() const { return candidates_.size(); }

 private:
  struct Slot {
    CandidateId id = 0;
    MeasureRequest request;  // validated: carries a formula
    // Signature of (content, options); an update that changes it counts
    // as invalidated.
    convex::CanonicalBodyKey content_key;
  };

  util::Status ApplyDelta(RankingDelta&& delta, RerankOutcome* outcome);
  util::Status RunLadder(RerankOutcome* outcome);
  Slot* FindSlot(CandidateId id);

  MeasureService* service_;
  RankingOptions options_;
  std::vector<Slot> candidates_;  // ascending id
  CandidateId next_id_ = 0;
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_RANKING_SESSION_H_
