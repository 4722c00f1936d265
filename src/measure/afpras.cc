#include "src/measure/afpras.h"

#include <algorithm>
#include <cmath>

#include "src/geom/geometry.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace mudb::measure {

void FillAdditiveInterval(AfprasResult* result, double epsilon) {
  if (result->exact) {
    result->ci_lo = result->estimate;
    result->ci_hi = result->estimate;
    return;
  }
  result->ci_lo = std::max(0.0, result->estimate - epsilon);
  result->ci_hi = std::min(1.0, result->estimate + epsilon);
}

util::Status ValidateEpsilon(double epsilon) {
  if (!(epsilon > 0) || !(epsilon <= 1)) {
    return util::Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  return util::Status::OK();
}

util::Status ValidateDelta(double delta) {
  if (!(delta > 0) || !(delta < 1)) {
    return util::Status::InvalidArgument("delta must be in (0, 1)");
  }
  return util::Status::OK();
}

int64_t AfprasSampleCount(double epsilon, double delta) {
  MUDB_CHECK(epsilon > 0 && epsilon <= 1);
  MUDB_CHECK(delta > 0 && delta < 1);
  double m = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<int64_t>(std::ceil(m));
}

util::StatusOr<AfprasResult> Afpras(const constraints::RealFormula& formula,
                                    const AfprasOptions& options,
                                    util::Rng& rng) {
  MUDB_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  MUDB_RETURN_IF_ERROR(ValidateDelta(options.delta));
  AfprasResult result;
  if (formula.is_constant()) {
    result.estimate =
        formula.kind() == constraints::RealFormula::Kind::kTrue ? 1.0 : 0.0;
    result.exact = true;
    FillAdditiveInterval(&result, options.epsilon);
    return result;
  }

  // Sample only the used variables (§9): the others cannot change ν.
  const constraints::RealFormula working = formula.Compacted();
  const int dim = working.NumVariables();
  result.sampled_dimension = dim;

  int64_t m = options.num_samples > 0
                  ? options.num_samples
                  : AfprasSampleCount(options.epsilon, options.delta);

  // Phase-level span over the whole direction-sampling sweep — never inside
  // the per-sample loop.
  obs::Span span("afpras.estimate");
  if (span.recording()) {
    span.Annotate("samples", static_cast<double>(m));
    span.Annotate("dim", static_cast<double>(dim));
  }

  // Directions only matter, so sampling the unit sphere is equivalent to
  // sampling the ball (Lemma 8.3 integrates over directions).
  auto count_hits = [&](int64_t samples, util::Rng& local_rng) {
    int64_t hits = 0;
    for (int64_t s = 0; s < samples; ++s) {
      geom::Vec a = geom::SampleUnitSphere(dim, local_rng);
      if (working.AsymptoticTruth(a)) ++hits;
    }
    return hits;
  };

  // Fixed-size chunks on substreams of the forked child (util/parallel.h):
  // the chunk grid depends on m alone, so the hit count — and the estimate —
  // is bit-identical for every thread count given the same seed. The chunk
  // size balances engine-setup overhead against exposing parallelism even at
  // the few-thousand-sample budgets of loose (ε, δ) settings.
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
