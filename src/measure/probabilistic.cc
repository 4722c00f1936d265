#include "src/measure/probabilistic.h"

#include <cmath>
#include <sstream>

#include "src/util/parallel.h"

namespace mudb::measure {

Distribution Distribution::Uniform(double lo, double hi) {
  return Distribution(Kind::kUniform, lo, hi);
}

Distribution Distribution::Gaussian(double mean, double sd) {
  return Distribution(Kind::kGaussian, mean, sd);
}

Distribution Distribution::Exponential(double rate) {
  return Distribution(Kind::kExponential, rate, 0);
}

Distribution Distribution::Point(double value) {
  return Distribution(Kind::kPoint, value, 0);
}

bool Distribution::valid() const {
  if (!std::isfinite(a_) || !std::isfinite(b_)) return false;
  switch (kind_) {
    case Kind::kUniform:
      return a_ <= b_;
    case Kind::kGaussian:
      return b_ > 0;
    case Kind::kExponential:
      return a_ > 0;
    case Kind::kPoint:
      return true;
  }
  return false;
}

double Distribution::Sample(util::Rng& rng) const {
  switch (kind_) {
    case Kind::kUniform:
      return rng.Uniform(a_, b_);
    case Kind::kGaussian:
      return a_ + b_ * rng.Gaussian();
    case Kind::kExponential: {
      // Inverse CDF; guard against log(0).
      double u = rng.Uniform01();
      if (u <= 0) u = 1e-300;
      return -std::log(u) / a_;
    }
    case Kind::kPoint:
      return a_;
  }
  return 0.0;
}

std::string Distribution::ToString() const {
  std::ostringstream out;
  switch (kind_) {
    case Kind::kUniform:
      out << "Uniform[" << a_ << ", " << b_ << "]";
      break;
    case Kind::kGaussian:
      out << "N(" << a_ << ", " << b_ << "\xC2\xB2)";
      break;
    case Kind::kExponential:
      out << "Exp(" << a_ << ")";
      break;
    case Kind::kPoint:
      out << "Point(" << a_ << ")";
      break;
  }
  return out.str();
}

util::StatusOr<AfprasResult> ProbabilisticMeasure(
    const constraints::RealFormula& formula,
    const std::vector<Distribution>& dists, const AfprasOptions& options,
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
  std::set<int> used = formula.UsedVariables();
  for (int v : used) {
    if (static_cast<size_t>(v) >= dists.size()) {
      return util::Status::InvalidArgument(
          "no distribution for variable z" + std::to_string(v));
    }
    if (!dists[v].valid()) {
      return util::Status::InvalidArgument("invalid distribution " +
                                           dists[v].ToString() +
                                           " for variable z" +
                                           std::to_string(v));
    }
  }
  const int dim = static_cast<int>(dists.size());
  result.sampled_dimension = static_cast<int>(used.size());

  int64_t m = options.num_samples > 0
                  ? options.num_samples
                  : AfprasSampleCount(options.epsilon, options.delta);
  auto count_hits = [&](int64_t samples, util::Rng& local_rng) {
    std::vector<double> z(dim, 0.0);
    int64_t hits = 0;
    for (int64_t s = 0; s < samples; ++s) {
      // Only the used coordinates influence φ; sampling just those
      // implements the §9 optimization for the probabilistic semantics.
      for (int v : used) z[v] = dists[v].Sample(local_rng);
      if (formula.EvaluateAt(z)) ++hits;
    }
    return hits;
  };
  // Same parallel contract as the AFPRAS: fixed-size chunks on substreams of
  // the forked child, so the estimate depends on the seed alone.
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
