// FPRAS (Thm. 7.1): multiplicative approximation of ν(φ) for the image of
// CQ(+,<) — formulae whose DNF disjuncts are conjunctions of *linear* atoms.
//
// Pipeline: DNF → homogenize every disjunct (drop constant terms; by [11]
// ν(φ) is the unit-ball volume fraction of the homogenized formula) → each
// disjunct is a convex cone ∩ B_1 with a membership oracle → per-cone inner
// ball via LP → annealed hit-and-run volume per cone → Karp–Luby union
// estimator → divide by Vol(B_1^n).
//
// Disjuncts containing a nontrivial equality atom span a measure-zero set and
// are dropped; ≠ atoms only remove measure-zero sets and are ignored.
//
// The pipeline is split in two: BuildFprasBodies is the deterministic,
// randomness-free front half (DNF, cones, inner-ball LPs) that exposes a
// request's convex bodies, and FprasFromBodies is the sampling back half;
// FprasConjunctive composes them. The runtime dedup itself happens inside
// volume/union_volume.cc (canonical keys) and the serving layer's caches —
// the exposed split is what lets tests and planning code inspect a
// request's geometry (e.g. verify that two requests really share a body,
// see service_test.cc) without paying for sampling.
//
// The expensive stages — per-cone inner-ball LPs, the annealing phases, the
// Karp–Luby loop — run on the caller's util::ThreadPool (inline without
// one), with the sampling work carved into RNG substreams by the workload so
// the estimate is bit-identical for any pool size (see util/thread_pool.h).
// Per-body volume estimates draw from streams derived from each body's
// canonical content key, so an external FprasOptions::body_cache can replay
// them bit-exactly across requests (see volume/union_volume.h).

#ifndef MUDB_SRC_MEASURE_FPRAS_H_
#define MUDB_SRC_MEASURE_FPRAS_H_

#include <cstdint>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/volume/union_volume.h"

namespace mudb::measure {

struct FprasOptions {
  /// Target relative error ε ∈ (0, 1]; anything else (NaN included) fails
  /// with InvalidArgument.
  double epsilon = 0.1;
  /// Optional worker pool for the pipeline (per-cone LPs, annealing
  /// phases, the Karp–Luby loop); nullptr runs it inline on the caller's
  /// thread. The estimate is bit-identical for any pool given the same
  /// seed: work is carved into a grid of RNG substreams independent of the
  /// thread count (see util/thread_pool.h). Not owned; one submitter at a
  /// time.
  util::ThreadPool* pool = nullptr;
  /// Optional cross-request cache of per-body volume estimates (not owned,
  /// must be thread-safe). Hits skip a body's sampling entirely and are
  /// bit-identical to recomputation — see volume/union_volume.h.
  volume::BodyEstimateCache* body_cache = nullptr;
};

struct FprasResult {
  double estimate = 0.0;
  /// Multiplicative confidence interval [estimate/(1+ε), estimate/(1−ε)]
  /// clamped to [0, 1] (a point on the trivial/exact paths): inverting
  /// est ∈ [(1−ε)ν, (1+ε)ν], the true ν lies inside whenever the FPRAS
  /// succeeds (its constant success probability — ε controls the width,
  /// not the failure rate). The ranking ladder (service/ranking_service.h)
  /// prunes candidates by these bounds.
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  /// Number of cone bodies with nonempty interior that entered the union
  /// estimate (before canonical dedup).
  int active_disjuncts = 0;
  /// Distinct bodies after canonical dedup (0 on trivial paths).
  int unique_bodies = 0;
  /// Dimension after variable restriction.
  int sampled_dimension = 0;
  /// Total hit-and-run steps taken by the sampling pipeline (0 on trivial
  /// paths; cache hits contribute nothing); steps / wall-time is the
  /// throughput mudb-bench and bench_micro report.
  int64_t sampling_steps = 0;
  /// Unique-body volume estimates served by options.body_cache.
  int64_t body_cache_hits = 0;
  /// True when the formula collapsed to a trivial 0/1 without sampling.
  bool trivial = false;
};

/// The deterministic front half of the FPRAS: the request's convex bodies
/// (one per DNF disjunct with nonempty interior), ready for volume
/// estimation — or the trivial outcome when no sampling is needed.
struct FprasBodySet {
  /// When true, `trivial_value` is the exact answer and `bodies` is empty.
  bool trivial = false;
  double trivial_value = 0.0;
  /// Dimension after variable restriction.
  int sampled_dimension = 0;
  /// Cone bodies with nonempty interior, in DNF disjunct order.
  std::vector<volume::SeededBody> bodies;
};

/// Runs the DNF → cones → inner-ball stages over the variables φ uses
/// (RealFormula::Compacted: z_0..z_{d−1}; unused nulls cannot change ν).
/// Deterministic, consumes no randomness. Fails with InvalidArgument if some
/// atom is nonlinear and ResourceExhausted if the DNF has more than 4096
/// disjuncts.
util::StatusOr<FprasBodySet> BuildFprasBodies(
    const constraints::RealFormula& formula, const FprasOptions& options);

/// Runs the sampling back half on a prepared body set. Fails with
/// InvalidArgument unless ε ∈ (0, 1]. Consumes randomness from `rng` (one
/// Rng::Fork draw inside the union estimate).
util::StatusOr<FprasResult> FprasFromBodies(const FprasBodySet& body_set,
                                            const FprasOptions& options,
                                            util::Rng& rng);

/// Runs the FPRAS end to end (BuildFprasBodies + FprasFromBodies). Fails
/// with InvalidArgument if ε ∉ (0, 1] or some atom is nonlinear, and with
/// ResourceExhausted if the DNF has more than 4096 disjuncts. Consumes
/// randomness from `rng` (one Rng::Fork draw inside the union estimate), so
/// repeated calls with one Rng see fresh sample paths.
util::StatusOr<FprasResult> FprasConjunctive(
    const constraints::RealFormula& formula, const FprasOptions& options,
    util::Rng& rng);

}  // namespace mudb::measure

#endif  // MUDB_SRC_MEASURE_FPRAS_H_
