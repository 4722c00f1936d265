// Public API: the measure of certainty μ(q, D, (a,s)) of the paper, and the
// underlying asymptotic volume functional ν(φ).
//
// Typical use:
//
//   model::Database db = ...;                 // may contain ⊥/⊤ nulls
//   logic::Query q = ...;                     // FO(+,·,<)
//   model::Tuple candidate = ...;             // one value per output column
//   measure::MeasureOptions opts;
//   auto result = measure::ComputeMeasure(q, db, candidate, opts);
//   // result->value ∈ [0, 1]; result->is_exact tells whether it is exact.
//
// Method selection (kAuto): exact engines when applicable (order formulae
// with few variables; ≤ 2 numeric nulls in the constraints), otherwise the
// AFPRAS of Thm. 8.1. The FPRAS of Thm. 7.1 must be requested explicitly
// (its multiplicative guarantee is stronger but its constants are larger).
//
// Every engine, the Z3 shortcut included, reads φ.Compacted()
// (constraints/real_formula.h): the variables φ uses, renumbered
// z_0..z_{d−1} in index order (§9: only the nulls that occur are sampled).
// So a result is a function of the compacted formula and the options: an
// order-preserving renaming of φ's variables returns it bit-identically, and
// the serving layer's request memo keys on exactly that
// (service/request_key.h).
//
// The randomized engines run on the caller's `pool` (util/thread_pool.h), or
// inline without one: given the same seed, any pool size returns
// bit-identical results, because sampling work is carved into RNG
// substreams by the workload, never by the thread count.
//
// Evaluating many candidates over one database? Use the serving layer
// (src/service/measure_service.h): it batches ComputeMeasure-equivalent
// requests, deduplicates identical convex bodies within and across requests
// via canonical content keys, and caches estimates — bit-identical to the
// sequential calls, at a fraction of the sampling cost. Per-call reuse knobs
// (`pool`, `body_cache` below) are what the service plugs into. Ranking
// candidates ("which k tuples are most certain?") should go through
// RankingService::RankTopK (service/ranking_service.h): its ε-ladder prunes
// hopeless candidates at coarse precision instead of paying the final ε for
// all of them.

#ifndef MUDB_SRC_MEASURE_MEASURE_H_
#define MUDB_SRC_MEASURE_MEASURE_H_

#include <cstdint>
#include <optional>
#include <string>

#include <map>

#include "src/constraints/real_formula.h"
#include "src/logic/formula.h"
#include "src/measure/afpras.h"
#include "src/measure/conditional.h"
#include "src/measure/fpras.h"
#include "src/model/database.h"
#include "src/util/rational.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/volume/union_volume.h"

namespace mudb::measure {

enum class Method {
  kAuto,        ///< exact when cheap, else AFPRAS
  kExactOrder,  ///< signed-interleaving enumeration (order formulae only)
  kExact2D,     ///< arc measure (≤ 2 variables only)
  kAfpras,      ///< additive approximation, any FO(+,·,<) grounding
  kFpras,       ///< multiplicative approximation, linear groundings only
};

const char* MethodToString(Method method);

struct MeasureOptions {
  Method method = Method::kAuto;
  /// Error bound: additive for the AFPRAS, relative for the FPRAS.
  double epsilon = 0.01;
  /// Failure probability of the randomized engines.
  double delta = 0.25;
  /// RNG seed for the randomized engines.
  uint64_t seed = 0xC0FFEE;
  /// Query Z3 (when available) for μ=0 / μ=1 certificates before sampling.
  bool use_z3_shortcuts = false;
  /// kAuto: maximum variables for the exact order engine.
  int exact_order_max_vars = 8;
  /// Cap on grounding (translate::GroundOptions::max_atoms) for the
  /// query-level entry points: bounds the work a single request can cost
  /// before sampling starts. Exceeding it fails with ResourceExhausted.
  size_t max_ground_atoms = 2'000'000;
  /// Optional worker pool for the randomized engines (AFPRAS, conditional
  /// AFPRAS, FPRAS); nullptr runs them inline on the caller's thread.
  /// Estimates are bit-identical for any pool given the same seed. Not
  /// owned; one submitter at a time (share across sequential calls only).
  util::ThreadPool* pool = nullptr;
  /// Optional cross-call cache of per-body volume estimates for the FPRAS
  /// path (not owned, must be thread-safe; see volume/union_volume.h and
  /// service/estimate_cache.h). Hits skip a body's sampling entirely and
  /// are bit-identical to recomputation, so sharing one cache across calls
  /// never changes any result.
  volume::BodyEstimateCache* body_cache = nullptr;
};

struct MeasureResult {
  /// The (estimated or exact) value of μ / ν in [0, 1].
  double value = 0.0;
  /// Confidence interval on the true measure, clamped to [0, 1]: with
  /// probability >= 1 − δ it lies in [ci_lo, ci_hi]. Multiplicative
  /// [value/(1+ε), value/(1−ε)] for the FPRAS, additive value ± ε for the
  /// AFPRAS family, a point for exact paths. The ranking scheduler
  /// (service/ranking_service.h) prunes candidates by these bounds.
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  /// ε-ladder tier this evaluation ran at: 0 on the direct API (one
  /// evaluation = one tier); the ranking scheduler stamps the ladder tier
  /// on each RankedCandidate::result (service/ranking_service.h).
  int tier = 0;
  /// The ε this evaluation actually ran at: options.epsilon for the
  /// randomized engines, 0 for exact paths (a point interval needs no
  /// budget). The ranking layers thread it through tier results so a
  /// session can tell how sharp a retained interval is without re-deriving
  /// the tier schedule (service/ranking_session.h).
  double epsilon_used = 0.0;
  /// Set when the value is exact and rational (order engine).
  std::optional<util::Rational> exact_rational;
  /// True when the value is exact (0/1 shortcuts, exact engines).
  bool is_exact = false;
  /// The engine that produced the value.
  Method method_used = Method::kAuto;
  /// Samples drawn by randomized engines (0 for exact paths).
  int64_t samples = 0;
  /// Hit-and-run steps taken by the FPRAS sampling pipeline (0 for the
  /// other engines; cache hits contribute nothing). Feeds the serving
  /// layer's per-batch accounting.
  int64_t sampling_steps = 0;
  /// Convex bodies that entered the FPRAS union estimate, before and after
  /// canonical dedup (0 for the other engines).
  int bodies = 0;
  int unique_bodies = 0;
  /// Unique-body volume estimates served by MeasureOptions::body_cache.
  int64_t body_cache_hits = 0;
  /// Dimension sampled: the randomized engines sample only the nulls that
  /// occur in the constraints (§9 optimization).
  int sampled_dimension = 0;
};

/// Validates the error-model knobs once at the API boundary: ε must lie in
/// (0, 1] and δ in (0, 1), checked by the ValidateEpsilon / ValidateDelta
/// that every estimator entry point runs (NaN fails). Every public entry
/// point (ComputeNu /
/// ComputeMeasure / ComputeConditionalMeasure and the serving layer) calls
/// this before doing any work — the ranking ladder's δ-splitting divides δ
/// into per-tier budgets, so a degenerate δ must fail up front instead of
/// flowing into AfprasSampleCount.
util::Status ValidateMeasureOptions(const MeasureOptions& options);

/// Computes ν(φ) for a grounded formula.
util::StatusOr<MeasureResult> ComputeNu(
    const constraints::RealFormula& formula, const MeasureOptions& options);

/// Computes μ(q, D, candidate): grounds via Prop. 5.3 and evaluates ν.
util::StatusOr<MeasureResult> ComputeMeasure(const logic::Query& q,
                                             const model::Database& db,
                                             const model::Tuple& candidate,
                                             const MeasureOptions& options);

/// Interval constraints on numeric nulls, keyed by null id (§10 extension:
/// "price is positive", "discount lies in [0, 1]").
using NullRanges = std::map<model::NullId, VarRange>;

/// Conditional measure μ_C(q, D, candidate): grounds the query, maps the
/// null-id ranges onto the grounded variables, and runs the conditional
/// AFPRAS (always randomized; exact engines do not apply).
util::StatusOr<MeasureResult> ComputeConditionalMeasure(
    const logic::Query& q, const model::Database& db,
    const model::Tuple& candidate, const NullRanges& ranges,
    const MeasureOptions& options);

/// True certain answer (μ = 1 via validity of φ over R^k). Requires Z3.
util::StatusOr<bool> IsCertainAnswer(const logic::Query& q,
                                     const model::Database& db,
                                     const model::Tuple& candidate);

/// Possibility (φ satisfiable, i.e. some valuation makes the tuple an
/// answer). Requires Z3.
util::StatusOr<bool> IsPossibleAnswer(const logic::Query& q,
                                      const model::Database& db,
                                      const model::Tuple& candidate);

}  // namespace mudb::measure

#endif  // MUDB_SRC_MEASURE_MEASURE_H_
