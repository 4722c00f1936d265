// Probabilistic measures: the paper's second §10 extension — "adding
// probability distributions associated with particular columns, which can
// simply replace uniform distributions over the n-dimensional ball".
//
// When every numeric null carries a (proper) probability distribution, no
// asymptotic construction is needed: the measure of certainty of a tuple is
// simply P_z~D(φ(z)), estimated by direct Monte-Carlo with the same
// Hoeffding sample bound as the AFPRAS.

#ifndef MUDB_SRC_MEASURE_PROBABILISTIC_H_
#define MUDB_SRC_MEASURE_PROBABILISTIC_H_

#include <string>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/measure/afpras.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace mudb::measure {

/// A one-dimensional sampling distribution for a numeric null. The
/// factories accept any parameters; ProbabilisticMeasure rejects the
/// invalid ones (valid() is false) with a Status.
class Distribution {
 public:
  enum class Kind { kUniform, kGaussian, kExponential, kPoint };

  /// Uniform on [lo, hi] (lo <= hi).
  static Distribution Uniform(double lo, double hi);
  /// Normal with the given mean and standard deviation (sd > 0).
  static Distribution Gaussian(double mean, double sd);
  /// Exponential with the given rate (> 0), supported on [0, ∞).
  static Distribution Exponential(double rate);
  /// The constant `value` (a degenerate distribution; useful for imputation
  /// comparisons).
  static Distribution Point(double value);

  Kind kind() const { return kind_; }
  /// Every parameter is finite, and lo <= hi, sd > 0, rate > 0.
  bool valid() const;
  double Sample(util::Rng& rng) const;
  std::string ToString() const;

 private:
  Distribution(Kind kind, double a, double b) : kind_(kind), a_(a), b_(b) {}

  Kind kind_;
  double a_;
  double b_;
};

/// Estimates P(φ(z)) when z_i ~ dists[i] independently. Every variable used
/// by φ must have a valid distribution (InvalidArgument naming z_i
/// otherwise). Samples run in fixed-size chunks on substreams of rng.Fork(),
/// on options.pool or inline without one, so the estimate is bit-identical
/// for every pool size.
util::StatusOr<AfprasResult> ProbabilisticMeasure(
    const constraints::RealFormula& formula,
    const std::vector<Distribution>& dists, const AfprasOptions& options,
    util::Rng& rng);

}  // namespace mudb::measure

#endif  // MUDB_SRC_MEASURE_PROBABILISTIC_H_
