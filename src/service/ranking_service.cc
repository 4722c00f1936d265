#include "src/service/ranking_service.h"

#include <utility>

#include "src/measure/measure.h"
#include "src/service/ranking_session.h"

namespace mudb::service {

double RankingTierDelta(const RankingOptions& options, size_t num_candidates) {
  if (options.per_estimate_delta > 0) return options.per_estimate_delta;
  size_t n = num_candidates > 0 ? num_candidates : 1;
  return options.delta /
         (static_cast<double>(kRankingMaxTiers) * static_cast<double>(n));
}

util::StatusOr<RankingOutcome> RankingService::RankTopK(
    std::vector<MeasureRequest> candidates, const RankingOptions& options) {
  // A one-shot ranking IS a fresh session fed one all-inserts delta: ids
  // are assigned densely in input order, so id == input index. Rerank
  // validates options and candidates before executing anything.
  RankingSession session(service_, options);
  RankingDelta delta;
  delta.inserts = std::move(candidates);
  MUDB_ASSIGN_OR_RETURN(RerankOutcome rerank,
                        session.Rerank(std::move(delta)));

  RankingOutcome outcome;
  outcome.candidates.reserve(rerank.candidates.size());
  for (SessionCandidate& cand : rerank.candidates) {
    RankedCandidate ranked;
    ranked.index = static_cast<size_t>(cand.id);
    ranked.result = std::move(cand.result);
    ranked.pruned = cand.pruned;
    outcome.candidates.push_back(std::move(ranked));
  }
  outcome.top_k.reserve(rerank.top_k.size());
  for (CandidateId id : rerank.top_k) {
    outcome.top_k.push_back(static_cast<size_t>(id));
  }
  outcome.tier_stats = std::move(rerank.tier_stats);
  outcome.total_sampling_steps = rerank.total_sampling_steps;
  outcome.trace_id = rerank.trace_id;
  return outcome;
}

}  // namespace mudb::service
