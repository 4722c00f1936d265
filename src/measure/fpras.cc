#include "src/measure/fpras.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "src/geom/geometry.h"
#include "src/measure/afpras.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"
#include "src/volume/union_volume.h"

namespace mudb::measure {

namespace {

using constraints::CmpOp;
using constraints::Conjunction;
using constraints::RealAtom;
using constraints::RealFormula;

// Cap on the DNF disjuncts converted to cones: a formula with more fails
// with ResourceExhausted before any LP or sampling work.
constexpr size_t kMaxDisjuncts = 4096;

// Translates one homogenized disjunct into cone halfspaces. Returns false if
// the disjunct has measure zero (contains a nontrivial equality or an
// unsatisfiable trivial atom).
bool DisjunctToHalfspaces(const Conjunction& conj, int dim,
                          std::vector<std::pair<geom::Vec, double>>* out) {
  for (const RealAtom& atom : conj) {
    geom::Vec a(dim, 0.0);
    bool any = false;
    for (int j = 0; j < dim; ++j) {
      a[j] = atom.poly.LinearCoefficient(j);
      if (a[j] != 0.0) any = true;
    }
    if (!any) {
      // 0 ◦ 0 after homogenization: true for ≤, =, ≥; false otherwise.
      if (atom.op == CmpOp::kLt || atom.op == CmpOp::kGt ||
          atom.op == CmpOp::kNeq) {
        return false;
      }
      continue;
    }
    switch (atom.op) {
      case CmpOp::kLt:
      case CmpOp::kLe:
        out->emplace_back(a, 0.0);
        break;
      case CmpOp::kGt:
      case CmpOp::kGe: {
        for (double& v : a) v = -v;
        out->emplace_back(a, 0.0);
        break;
      }
      case CmpOp::kEq:
        return false;  // a nontrivial hyperplane: measure zero
      case CmpOp::kNeq:
        break;  // removes a measure-zero set; ignore
    }
  }
  return true;
}

}  // namespace

util::StatusOr<FprasBodySet> BuildFprasBodies(
    const constraints::RealFormula& formula, const FprasOptions& options) {
  // Phase-level span: DNF, cone translation, and the inner-ball LPs.
  obs::Span span("fpras.build_bodies");
  FprasBodySet set;
  if (formula.is_constant()) {
    set.trivial = true;
    set.trivial_value = formula.kind() == RealFormula::Kind::kTrue ? 1.0 : 0.0;
    return set;
  }
  if (!formula.IsLinear()) {
    return util::Status::InvalidArgument(
        "FPRAS requires linear constraints (CQ(+,<) image); "
        "use the AFPRAS for FO(+,\xC2\xB7,<)");
  }

  // Sample only the used variables (§9): the others cannot change ν.
  const RealFormula working = formula.Compacted();
  const int dim = working.NumVariables();
  set.sampled_dimension = dim;

  MUDB_ASSIGN_OR_RETURN(std::vector<Conjunction> dnf,
                        working.ToDnf(kMaxDisjuncts));

  // Translate every disjunct to cone halfspaces (cheap, serial), ...
  std::vector<std::vector<std::pair<geom::Vec, double>>> cones;
  for (const Conjunction& conj : dnf) {
    Conjunction hom = constraints::HomogenizeLinear(conj);
    std::vector<std::pair<geom::Vec, double>> halfspaces;
    if (!DisjunctToHalfspaces(hom, dim, &halfspaces)) continue;
    if (halfspaces.empty()) {
      // The disjunct covers the whole space: ν = 1 exactly.
      set.trivial = true;
      set.trivial_value = 1.0;
      set.bodies.clear();
      return set;
    }
    cones.push_back(std::move(halfspaces));
  }

  // ... then dispatch the inner-ball LPs as independent tasks and assemble
  // the surviving bodies in cone order. Chunked so each task reuses one
  // InnerBallFinder (LP tableau scratch and the shared box/margin rows)
  // across its cones. The grid is a function of the cone count alone and
  // each cone's result depends only on that cone, so the outcome is
  // identical for any thread count.
  std::vector<std::optional<convex::InnerBall>> inners(cones.size());
  const int num_cones = static_cast<int>(cones.size());
  const int lp_chunks = std::min(num_cones, 64);
  util::ThreadPool::RunGrid(options.pool, lp_chunks, [&](int64_t c) {
    convex::InnerBallFinder finder(dim, 1.0);
    for (int i = static_cast<int>(c); i < num_cones; i += lp_chunks) {
      inners[i] = finder.Find(cones[i]);
    }
  });
  for (size_t i = 0; i < cones.size(); ++i) {
    if (!inners[i]) continue;  // empty interior: volume 0
    convex::ConvexBody body(dim);
    for (const auto& [a, b] : cones[i]) body.AddHalfspace(a, b);
    body.AddBall(geom::Vec(dim, 0.0), 1.0);
    double outer_bound = 1.0 + geom::Norm(inners[i]->center) + 1e-9;
    set.bodies.push_back(
        volume::SeededBody{std::move(body), *inners[i], outer_bound});
  }
  if (span.recording()) {
    span.Annotate("cones", static_cast<double>(cones.size()));
    span.Annotate("bodies", static_cast<double>(set.bodies.size()));
  }
  return set;
}

util::StatusOr<FprasResult> FprasFromBodies(const FprasBodySet& body_set,
                                            const FprasOptions& options,
                                            util::Rng& rng) {
  MUDB_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  FprasResult result;
  result.sampled_dimension = body_set.sampled_dimension;
  if (body_set.trivial) {
    result.trivial = true;
    result.estimate = body_set.trivial_value;
    result.ci_lo = result.estimate;
    result.ci_hi = result.estimate;
    return result;
  }
  result.active_disjuncts = static_cast<int>(body_set.bodies.size());
  if (body_set.bodies.empty()) {
    // Every disjunct has measure zero (or empty interior): ν = 0 exactly,
    // without sampling — report it as trivial so downstream consumers (the
    // ranking scheduler's tier freeze, is_exact) treat it like the other
    // exact paths.
    result.trivial = true;
    result.estimate = 0.0;
    return result;
  }

  // Phase-level span over the union-volume estimate (the sampling expense).
  obs::Span span("fpras.union_estimate");
  if (span.recording()) {
    span.Annotate("bodies", static_cast<double>(body_set.bodies.size()));
    span.Annotate("epsilon", options.epsilon);
  }
  volume::UnionVolumeOptions uopts;
  uopts.epsilon = options.epsilon;
  uopts.pool = options.pool;
  uopts.body_cache = options.body_cache;
  MUDB_ASSIGN_OR_RETURN(
      volume::UnionVolumeResult uv,
      volume::EstimateUnionVolume(body_set.bodies, uopts, rng));
  result.estimate =
      uv.volume / geom::BallVolume(body_set.sampled_dimension, 1.0);
  // est ∈ [(1−ε)ν, (1+ε)ν] inverts to ν ∈ [est/(1+ε), est/(1−ε)]; at
  // ε = 1 the upper bound is vacuous (and est/0 would be NaN for est = 0).
  result.ci_lo = result.estimate / (1.0 + options.epsilon);
  result.ci_hi =
      options.epsilon >= 1.0
          ? 1.0
          : std::min(1.0, result.estimate / (1.0 - options.epsilon));
  result.sampling_steps = uv.steps;
  result.unique_bodies = uv.unique_bodies;
  result.body_cache_hits = uv.body_cache_hits;
  if (span.recording()) {
    span.Annotate("sampling_steps", static_cast<double>(uv.steps));
    span.Annotate("body_cache_hits", static_cast<double>(uv.body_cache_hits));
  }
  return result;
}

util::StatusOr<FprasResult> FprasConjunctive(
    const constraints::RealFormula& formula, const FprasOptions& options,
    util::Rng& rng) {
  // Checked before the DNF and LP work, which does not read ε.
  MUDB_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  MUDB_ASSIGN_OR_RETURN(FprasBodySet set, BuildFprasBodies(formula, options));
  return FprasFromBodies(set, options, rng);
}

}  // namespace mudb::measure
