#include "src/measure/conditional.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/parallel.h"

namespace mudb::measure {

util::StatusOr<AfprasResult> ConditionalAfpras(
    const constraints::RealFormula& formula, const VarRanges& ranges,
    const AfprasOptions& options, util::Rng& rng) {
  MUDB_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  MUDB_RETURN_IF_ERROR(ValidateDelta(options.delta));
  for (size_t i = 0; i < ranges.size(); ++i) {
    const VarRange& r = ranges[i];
    // A NaN bound would fail every comparison, and an infinite one would
    // make a bounded coordinate sample Uniform(lo, ∞). An infinite side is
    // written by leaving that bound unset.
    if ((r.lo && !std::isfinite(*r.lo)) || (r.hi && !std::isfinite(*r.hi))) {
      return util::Status::InvalidArgument(
          "non-finite range bound on variable z" + std::to_string(i));
    }
    if (r.bounded() && *r.lo > *r.hi) {
      return util::Status::InvalidArgument(
          "empty range on variable z" + std::to_string(i));
    }
  }
  AfprasResult result;
  if (formula.is_constant()) {
    result.estimate =
        formula.kind() == constraints::RealFormula::Kind::kTrue ? 1.0 : 0.0;
    result.exact = true;
    FillAdditiveInterval(&result, options.epsilon);
    return result;
  }

  // Restrict to the variables occurring in the formula; constraints on
  // unused variables marginalize out (their interval factor cancels in the
  // numerator/denominator ratio). Each range follows its variable.
  std::vector<int> used;
  const constraints::RealFormula working = formula.Compacted(&used);
  std::vector<VarRange> var_ranges;
  for (int v : used) {
    var_ranges.push_back(static_cast<size_t>(v) < ranges.size()
                             ? ranges[v]
                             : VarRange::Free());
  }
  const int dim = static_cast<int>(var_ranges.size());
  result.sampled_dimension = dim;

  std::vector<bool> scaled(dim);
  for (int i = 0; i < dim; ++i) scaled[i] = !var_ranges[i].bounded();

  int64_t m = options.num_samples > 0
                  ? options.num_samples
                  : AfprasSampleCount(options.epsilon, options.delta);
  // Same parallel contract as the unconditional AFPRAS: fixed-size chunks on
  // substreams of the forked child, so the estimate only depends on the seed.
  auto count_hits = [&](int64_t samples, util::Rng& local_rng) {
    std::vector<double> a(dim);
    int64_t hits = 0;
    for (int64_t s = 0; s < samples; ++s) {
      for (int i = 0; i < dim; ++i) {
        const VarRange& r = var_ranges[i];
        if (r.bounded()) {
          a[i] = local_rng.Uniform(*r.lo, *r.hi);
        } else if (r.lo) {
          a[i] = std::fabs(local_rng.Gaussian());   // direction into [lo, ∞)
        } else if (r.hi) {
          a[i] = -std::fabs(local_rng.Gaussian());  // direction into (-∞, hi]
        } else {
          a[i] = local_rng.Gaussian();
        }
      }
      if (working.AsymptoticTruthPartial(a, scaled)) ++hits;
    }
    return hits;
  };
  const int64_t kChunkSamples = 1024;
  util::Rng base = rng.Fork();
  int64_t hits = util::ReduceSampleChunks<int64_t>(
      options.pool, m, kChunkSamples, base, /*init=*/0, count_hits);
  result.samples = m;
  result.estimate = static_cast<double>(hits) / static_cast<double>(m);
  FillAdditiveInterval(&result, options.epsilon);
  return result;
}

}  // namespace mudb::measure
