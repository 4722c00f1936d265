// Conditional measures: the paper's first future-work item (§10).
//
// The agnostic semantics lets every numeric null take any real value. In
// practice columns carry range constraints — "price is positive", "discount
// lies in [0, 1]". Following §10, such constraints C are added to both the
// numerator and denominator of the ratio defining the measure:
//
//     μ_C(φ) = lim_{r→∞} Vol(φ ∧ C ∩ B_r) / Vol(C ∩ B_r).
//
// With per-variable interval constraints, C factors into bounded coordinates
// (finite intervals [lo, hi]), half-lines, and free coordinates, and the
// limit decomposes:
//   * bounded coordinates stay finite as r grows: they integrate uniformly
//     over their interval;
//   * half-line and free coordinates behave directionally as in Lemma 8.3,
//     with half-lines restricting the direction's sign;
//   * the truth of φ in the limit is decided by the mixed restriction
//     p(fixed values, k·direction) and its leading coefficient in k
//     (RealFormula::AsymptoticTruthPartial).
//
// The estimator is the natural extension of the AFPRAS: sample bounded
// coordinates uniformly, sample a direction for the unbounded ones (sign-
// restricted for half-lines), average the mixed asymptotic truth. The same
// Hoeffding bound gives |estimate − μ_C| < ε with probability 1 − δ.

#ifndef MUDB_SRC_MEASURE_CONDITIONAL_H_
#define MUDB_SRC_MEASURE_CONDITIONAL_H_

#include <optional>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/measure/afpras.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace mudb::measure {

/// An interval constraint on one variable. Unset bounds are infinite:
/// both set → bounded; one set → half-line; none → free (agnostic default).
/// A set bound must be finite.
struct VarRange {
  std::optional<double> lo;
  std::optional<double> hi;

  static VarRange Free() { return {}; }
  static VarRange AtLeast(double lo) { return {lo, std::nullopt}; }
  static VarRange AtMost(double hi) { return {std::nullopt, hi}; }
  static VarRange Between(double lo, double hi) { return {lo, hi}; }

  bool bounded() const { return lo && hi; }
  bool half_line() const { return lo.has_value() != hi.has_value(); }
  bool free() const { return !lo && !hi; }
};

/// Ranges indexed by variable (z_i); variables beyond the vector are free.
using VarRanges = std::vector<VarRange>;

/// Estimates μ_C(φ) for per-variable interval constraints C. Empty ranges
/// reproduce the unconditional AFPRAS. Fails with InvalidArgument on a
/// NaN or infinite bound and on an empty interval (lo > hi), naming the
/// variable. Samples only the variables φ uses (RealFormula::Compacted), each
/// under its own range. Same Rng contract as Afpras: one Fork draw,
/// sampling from substreams, bit-identical for any pool size.
util::StatusOr<AfprasResult> ConditionalAfpras(
    const constraints::RealFormula& formula, const VarRanges& ranges,
    const AfprasOptions& options, util::Rng& rng);

}  // namespace mudb::measure

#endif  // MUDB_SRC_MEASURE_CONDITIONAL_H_
