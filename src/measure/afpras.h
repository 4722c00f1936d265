// AFPRAS (Thm. 8.1): additive fully polynomial-time randomized approximation
// of ν(φ) for arbitrary FO(+,·,<) groundings.
//
// By Lemma 8.3, ν(φ) equals the fraction of directions a in the unit ball
// with lim_{k→∞} f_{φ,a}(k) = 1; the limit is decided per direction in
// polynomial time by leading-coefficient analysis (Lemma 8.4, implemented in
// RealFormula::AsymptoticTruth). Sampling m >= ln(2/δ)/(2ε²) directions gives
// |estimate − ν| < ε with probability >= 1 − δ (Hoeffding; the paper quotes
// m >= ε^{-2} for δ = 1/4).

#ifndef MUDB_SRC_MEASURE_AFPRAS_H_
#define MUDB_SRC_MEASURE_AFPRAS_H_

#include <cstdint>

#include "src/constraints/real_formula.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::measure {

struct AfprasOptions {
  /// Additive error bound ε ∈ (0, 1].
  double epsilon = 0.01;
  /// Failure probability δ ∈ (0, 1).
  double delta = 0.25;
  /// Overrides the sample count computed from (ε, δ) when > 0.
  int64_t num_samples = 0;
  /// Optional worker pool for the sampling loop; nullptr samples inline on
  /// the caller's thread. The estimate is bit-identical for any pool given
  /// the same seed: samples are carved into fixed-size chunks, chunk c
  /// drawing from the substream Rng::Split(c) (see util/parallel.h). Not
  /// owned; one submitter at a time.
  util::ThreadPool* pool = nullptr;
};

struct AfprasResult {
  double estimate = 0.0;
  /// Additive confidence interval [estimate − ε, estimate + ε] clamped to
  /// [0, 1] (a point when `exact`): the true ν lies inside with
  /// probability >= 1 − δ (Hoeffding).
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  int64_t samples = 0;
  /// Dimension actually sampled (after restriction to used variables).
  int sampled_dimension = 0;
  /// True when the estimate is exactly ν: a constant formula is decided
  /// without sampling.
  bool exact = false;
};

/// The error-model bounds every estimator entry point checks before any
/// work: ε ∈ (0, 1] and δ ∈ (0, 1), else InvalidArgument. Written with
/// negated comparisons, so NaN fails too.
util::Status ValidateEpsilon(double epsilon);
util::Status ValidateDelta(double delta);

/// Number of samples required for additive error ε with confidence 1 − δ.
int64_t AfprasSampleCount(double epsilon, double delta);

/// Fills ci_lo/ci_hi from the estimate: the additive Hoeffding interval
/// estimate ± ε clamped to [0, 1], collapsing to a point when `exact`.
/// Shared by every AFPRAS-family engine (unconditional, conditional,
/// probabilistic) so the interval the ranking scheduler prunes by cannot
/// drift between them.
void FillAdditiveInterval(AfprasResult* result, double epsilon);

/// Runs the AFPRAS on φ, sampling directions over only the variables φ uses
/// (the §9 optimization: the other coordinates cannot change its truth, and
/// dropping them leaves the directional distribution unchanged), compacted
/// by RealFormula::Compacted. Fails with InvalidArgument unless ε ∈ (0, 1]
/// and δ ∈ (0, 1). A constant formula returns exactly 0 or 1. Advances
/// `rng` by one draw (Rng::Fork) and samples from substreams of the forked
/// child, so repeated calls with one Rng see fresh randomness while a fresh
/// same-seeded Rng reproduces the estimate bit-exactly.
util::StatusOr<AfprasResult> Afpras(const constraints::RealFormula& formula,
                                    const AfprasOptions& options,
                                    util::Rng& rng);

}  // namespace mudb::measure

#endif  // MUDB_SRC_MEASURE_AFPRAS_H_
