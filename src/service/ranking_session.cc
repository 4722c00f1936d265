#include "src/service/ranking_session.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/service/request_key.h"

namespace mudb::service {

namespace {

// Names a session candidate in delta validation errors ("candidate 5").
std::string CandidateRef(CandidateId id) {
  return "candidate " + std::to_string(id);
}

// The k-th largest estimate among the active candidates — the running cut
// the schedule measures each open candidate's gap from. Falls back to the
// smallest active estimate when fewer than k are active.
double KthLargestValue(const std::vector<SessionCandidate>& candidates,
                       const std::vector<bool>& active, size_t k) {
  std::vector<double> values;
  values.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (active[i]) values.push_back(candidates[i].result.value);
  }
  if (values.empty()) return 0.0;
  const size_t nth = std::min(k, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + nth, values.end(),
                   std::greater<double>());
  return values[nth];
}

// Chooses the next tier's ε from the tier-t estimates alone — a pure
// function of the estimates, so the schedule inherits the determinism
// contract of the estimates. std::nullopt means "jump straight to the
// final tier".
std::optional<double> NextTierEps(
    size_t t, double cur_eps, const std::vector<SessionCandidate>& candidates,
    const std::vector<bool>& active, const std::vector<bool>& frozen,
    const std::vector<double>& final_eps, size_t k) {
  // δ budget: the split paid for kRankingMaxTiers tiers, so tier t+1 must
  // be the final one once only one slot remains.
  if (t + 2 >= static_cast<size_t>(kRankingMaxTiers)) return std::nullopt;

  const size_t n = candidates.size();
  size_t num_active = 0;
  size_t num_open = 0;  // active and not yet at final precision
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    ++num_active;
    if (!frozen[i]) ++num_open;
  }
  if (num_open == 0) return std::nullopt;
  // Separated: at most k contenders remain, so an intermediate tier cannot
  // prune anyone — only the survivors' final refinement is left.
  if (num_active <= k) return std::nullopt;

  const double vk = KthLargestValue(candidates, active, k);

  // Gap of every open candidate to the running cut. The median sets the
  // scale the next tier must resolve to prune about half of them.
  std::vector<double> gaps;
  gaps.reserve(num_open);
  for (size_t i = 0; i < n; ++i) {
    if (active[i] && !frozen[i]) {
      gaps.push_back(std::abs(candidates[i].result.value - vk));
    }
  }
  std::sort(gaps.begin(), gaps.end());
  const double median_gap = gaps[gaps.size() / 2];

  // An interval of half-width ~gap/2 separates a candidate from the cut;
  // clamp into [cur/4, cur/2] so tiers shrink geometrically however the
  // gaps degenerate.
  double eps = median_gap / 2;
  eps = std::min(eps, cur_eps / 2);
  eps = std::max(eps, cur_eps / 4);

  // A tier at or below the open candidates' finest final ε would clamp for
  // everyone — it would BE the final tier, so run the final tier instead.
  double floor_eps = 1.0;
  for (size_t i = 0; i < n; ++i) {
    if (active[i] && !frozen[i]) floor_eps = std::min(floor_eps, final_eps[i]);
  }
  if (eps <= floor_eps) return std::nullopt;

  // Worth-it under the steps ∝ 1/ε² cost model: the tier charges every open
  // candidate ~1/ε² and can at best save the prunable ones (gap wide enough
  // for the tier to separate) their ~1/ε_final² refinement. Skip to final
  // when the bound says the tier cannot pay for itself.
  size_t prunable = 0;
  for (double g : gaps) {
    if (g / 2 > eps) ++prunable;
  }
  if (static_cast<double>(num_open) * floor_eps * floor_eps >=
      static_cast<double>(prunable) * eps * eps) {
    return std::nullopt;
  }
  return eps;
}

// Validates k, δ and per_estimate_delta. Negated comparisons so a NaN
// fails every range check.
util::Status ValidateRankingOptions(const RankingOptions& options) {
  if (options.k < 1) {
    return util::Status::InvalidArgument("ranking k must be >= 1");
  }
  if (!(options.delta > 0) || !(options.delta < 1)) {
    return util::Status::InvalidArgument("ranking delta must be in (0, 1)");
  }
  if (options.per_estimate_delta != 0.0 &&
      (!(options.per_estimate_delta > 0) ||
       !(options.per_estimate_delta < 1))) {
    return util::Status::InvalidArgument(
        "per_estimate_delta must be 0 (split delta) or lie in (0, 1)");
  }
  return util::Status::OK();
}

// A delta's request must carry valid options and a formula; `what` names
// the candidate in the message.
util::Status ValidateRequest(const MeasureRequest& request,
                             const std::string& what) {
  util::Status valid = measure::ValidateMeasureOptions(request.options);
  if (!valid.ok()) {
    return util::Status::InvalidArgument(what + ": " + valid.message());
  }
  if (!request.formula.has_value()) {
    return util::Status::InvalidArgument(what +
                                         ": MeasureRequest needs a formula");
  }
  return util::Status::OK();
}

}  // namespace

RankingSession::Slot* RankingSession::FindSlot(CandidateId id) {
  auto it = std::lower_bound(
      candidates_.begin(), candidates_.end(), id,
      [](const Slot& slot, CandidateId value) { return slot.id < value; });
  if (it == candidates_.end() || it->id != id) return nullptr;
  return &*it;
}

util::Status RankingSession::ApplyDelta(RankingDelta&& delta,
                                        RerankOutcome* outcome) {
  obs::Span span("ranking.apply_delta");
  if (span.recording()) {
    span.Annotate("inserts", static_cast<double>(delta.inserts.size()));
    span.Annotate("removals", static_cast<double>(delta.removals.size()));
    span.Annotate("updates", static_cast<double>(delta.updates.size()));
  }
  // Validate EVERYTHING before touching the session, so a bad delta is
  // all-or-nothing.
  std::unordered_set<CandidateId> removed;
  for (CandidateId id : delta.removals) {
    if (FindSlot(id) == nullptr || removed.count(id) > 0) {
      return util::Status::NotFound("removal: unknown " + CandidateRef(id));
    }
    removed.insert(id);
  }
  std::unordered_set<CandidateId> updated;
  for (const auto& [id, request] : delta.updates) {
    if (FindSlot(id) == nullptr || removed.count(id) > 0) {
      return util::Status::NotFound("update: unknown " + CandidateRef(id));
    }
    // A second update of one id would count and invalidate it twice.
    if (!updated.insert(id).second) {
      return util::Status::InvalidArgument("update: repeated " +
                                           CandidateRef(id));
    }
    MUDB_RETURN_IF_ERROR(ValidateRequest(request, CandidateRef(id)));
  }
  for (size_t j = 0; j < delta.inserts.size(); ++j) {
    // Inserts are named by the id they are about to receive, which for a
    // fresh session makes the message match the input index.
    MUDB_RETURN_IF_ERROR(
        ValidateRequest(delta.inserts[j], CandidateRef(next_id_ + j)));
  }

  // Commit: removals → updates → inserts.
  candidates_.erase(
      std::remove_if(candidates_.begin(), candidates_.end(),
                     [&](const Slot& slot) { return removed.count(slot.id); }),
      candidates_.end());
  for (auto& [id, request] : delta.updates) {
    Slot& slot = *FindSlot(id);
    convex::CanonicalBodyKey key =
        RequestSignature(*request.formula, request.options);
    // Identical content is a no-op: every warm tier keeps its signature
    // (this is the content-keyed part of invalidation).
    if (key != slot.content_key) ++outcome->invalidated;
    slot.request = std::move(request);
    slot.content_key = key;
  }
  for (MeasureRequest& request : delta.inserts) {
    Slot slot;
    slot.id = next_id_++;
    slot.content_key = RequestSignature(*request.formula, request.options);
    slot.request = std::move(request);
    outcome->inserted_ids.push_back(slot.id);
    candidates_.push_back(std::move(slot));
  }
  return util::Status::OK();
}

util::Status RankingSession::RunLadder(RerankOutcome* outcome) {
  const size_t n = candidates_.size();
  const size_t k = static_cast<size_t>(options_.k);
  const double tier_delta = RankingTierDelta(options_, n);

  outcome->candidates.clear();
  outcome->candidates.reserve(n);
  std::vector<double> final_eps(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    SessionCandidate cand;
    cand.id = candidates_[i].id;
    outcome->candidates.push_back(cand);
    final_eps[i] = candidates_[i].request.options.epsilon;
  }

  // active: still a top-k contender. frozen: at final precision (its own ε)
  // or exact — never resubmitted, but its tight interval keeps competing.
  std::vector<bool> active(n, true);
  std::vector<bool> frozen(n, false);

  // The nominal ε of the tier about to run; nullopt = the final tier
  // (every candidate at its own ε). Tier 0 runs at kRankingCoarseEpsilon;
  // each later ε is chosen at the end of the previous tier, from its
  // estimates.
  std::optional<double> tier_eps = kRankingCoarseEpsilon;

  for (size_t t = 0;; ++t) {
    // Assemble the tier from the unfinished survivors, ascending by id. A
    // tier ε at or below a candidate's own ε clamps to the final precision
    // — that request IS the candidate's final evaluation.
    std::vector<size_t> members;
    std::vector<MeasureRequest> batch;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i] || frozen[i]) continue;
      MeasureRequest request = candidates_[i].request;
      request.options.epsilon =
          tier_eps.has_value() ? std::max(*tier_eps, final_eps[i])
                               : final_eps[i];
      request.options.delta = tier_delta;
      members.push_back(i);
      batch.push_back(std::move(request));
    }
    if (batch.empty()) break;  // every surviving candidate is finished

    // One span per executed ε-tier: the batch it submitted parents under
    // it, so a trace reads as rerank → tier → process → estimator phases.
    obs::Span tier_span("ranking.tier");
    if (tier_span.recording()) {
      tier_span.Annotate("tier", static_cast<double>(t));
      tier_span.Annotate("eps", tier_eps.has_value() ? *tier_eps : 0.0);
      tier_span.Annotate("final", tier_eps.has_value() ? 0.0 : 1.0);
      tier_span.Annotate("evaluations", static_cast<double>(batch.size()));
    }

    // Warm evaluations are request-memo hits inside the batch.
    MeasureService::BatchOutcome tier = service_->RunBatch(std::move(batch));
    outcome->tier_stats.push_back(tier.stats);
    outcome->evaluations += tier.stats.requests;
    outcome->warm_hits += tier.stats.request_cache_hits;
    for (size_t b = 0; b < members.size(); ++b) {
      // members ascend by id, so the propagated error is deterministically
      // the lowest-id failure.
      if (!tier.results[b].ok()) return tier.results[b].status();
      const size_t i = members[b];
      SessionCandidate& cand = outcome->candidates[i];
      cand.result = *tier.results[b];
      cand.result.tier = static_cast<int>(t);
      const bool at_final_eps =
          !tier_eps.has_value() || *tier_eps <= final_eps[i];
      if (cand.result.is_exact || at_final_eps) frozen[i] = true;
    }

    // Prune: drop every unfinished candidate whose upper bound falls
    // strictly below the k-th largest lower bound among the active
    // candidates (finished ones included — their tight intervals only
    // sharpen the threshold). A pure function of the tier-t estimates:
    // ties keep candidates, and the k holders of the top lower bounds
    // always survive — the active set can never shrink below min(n, k).
    std::vector<double> lower;
    lower.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (active[i]) lower.push_back(outcome->candidates[i].result.ci_lo);
    }
    int64_t pruned_this_tier = 0;
    if (lower.size() > k) {
      std::nth_element(lower.begin(), lower.begin() + (k - 1), lower.end(),
                       std::greater<double>());
      const double threshold = lower[k - 1];
      for (size_t i = 0; i < n; ++i) {
        if (active[i] && !frozen[i] &&
            outcome->candidates[i].result.ci_hi < threshold) {
          active[i] = false;
          outcome->candidates[i].pruned = true;
          ++pruned_this_tier;
        }
      }
    }
    if (tier_span.recording()) {
      int64_t survivors = 0;
      for (size_t i = 0; i < n; ++i) survivors += active[i] ? 1 : 0;
      tier_span.Annotate("pruned", static_cast<double>(pruned_this_tier));
      tier_span.Annotate("survivors", static_cast<double>(survivors));
    }

    if (tier_eps.has_value()) {
      tier_eps = NextTierEps(t, *tier_eps, outcome->candidates, active,
                             frozen, final_eps, k);
    }
  }

  // Final ranking over the survivors, all of which hold final-precision
  // estimates by now: sort by estimate, ties by ascending id.
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ea = outcome->candidates[a].result.value;
    const double eb = outcome->candidates[b].result.value;
    if (ea != eb) return ea > eb;
    return a < b;
  });
  if (order.size() > k) order.resize(k);
  outcome->top_k.reserve(order.size());
  for (size_t i : order) outcome->top_k.push_back(outcome->candidates[i].id);
  for (size_t i = 0; i < n; ++i) outcome->candidates[i].frozen = frozen[i];
  for (const BatchStats& stats : outcome->tier_stats) {
    outcome->total_sampling_steps += stats.sampling_steps;
  }
  return util::Status::OK();
}

util::StatusOr<RerankOutcome> RankingSession::Rerank(RankingDelta delta) {
  obs::Span span("ranking.rerank");
  MUDB_RETURN_IF_ERROR(ValidateRankingOptions(options_));
  RerankOutcome outcome;
  MUDB_RETURN_IF_ERROR(ApplyDelta(std::move(delta), &outcome));
  MUDB_RETURN_IF_ERROR(RunLadder(&outcome));
  outcome.trace_id = span.context().trace_id;
  if (span.recording()) {
    span.Annotate("candidates", static_cast<double>(candidates_.size()));
    span.Annotate("evaluations", static_cast<double>(outcome.evaluations));
    span.Annotate("warm_hits", static_cast<double>(outcome.warm_hits));
    span.Annotate("invalidated", static_cast<double>(outcome.invalidated));
  }
  return outcome;
}

}  // namespace mudb::service
