#include "src/measure/measure.h"

#include "src/measure/nu_exact.h"
#include "src/measure/oracle.h"
#include "src/obs/trace.h"
#include "src/translate/ground.h"

namespace mudb::measure {

const char* MethodToString(Method method) {
  switch (method) {
    case Method::kAuto:
      return "auto";
    case Method::kExactOrder:
      return "exact-order";
    case Method::kExact2D:
      return "exact-2d";
    case Method::kAfpras:
      return "afpras";
    case Method::kFpras:
      return "fpras";
  }
  return "?";
}

namespace {

using constraints::RealFormula;

MeasureResult ExactConstantResult(double value, Method method) {
  MeasureResult r;
  r.value = value;
  r.ci_lo = value;
  r.ci_hi = value;
  r.is_exact = true;
  r.exact_rational = util::Rational(value == 1.0 ? 1 : 0);
  r.method_used = method;
  return r;
}

util::StatusOr<MeasureResult> RunAfpras(const RealFormula& formula,
                                        const MeasureOptions& options) {
  AfprasOptions aopts;
  aopts.epsilon = options.epsilon;
  aopts.delta = options.delta;
  aopts.pool = options.pool;
  util::Rng rng(options.seed);
  MUDB_ASSIGN_OR_RETURN(AfprasResult ar, Afpras(formula, aopts, rng));
  MeasureResult r;
  r.value = ar.estimate;
  r.ci_lo = ar.ci_lo;
  r.ci_hi = ar.ci_hi;
  r.is_exact = ar.exact;
  r.epsilon_used = ar.exact ? 0.0 : options.epsilon;
  r.method_used = Method::kAfpras;
  r.samples = ar.samples;
  r.sampled_dimension = ar.sampled_dimension;
  return r;
}

util::StatusOr<MeasureResult> RunFpras(const RealFormula& formula,
                                       const MeasureOptions& options) {
  FprasOptions fopts;
  fopts.epsilon = options.epsilon;
  fopts.pool = options.pool;
  fopts.body_cache = options.body_cache;
  util::Rng rng(options.seed);
  MUDB_ASSIGN_OR_RETURN(FprasResult fr, FprasConjunctive(formula, fopts, rng));
  MeasureResult r;
  r.value = fr.estimate;
  r.ci_lo = fr.ci_lo;
  r.ci_hi = fr.ci_hi;
  r.is_exact = fr.trivial;
  r.epsilon_used = fr.trivial ? 0.0 : options.epsilon;
  r.method_used = Method::kFpras;
  r.sampled_dimension = fr.sampled_dimension;
  r.sampling_steps = fr.sampling_steps;
  r.bodies = fr.active_disjuncts;
  r.unique_bodies = fr.unique_bodies;
  r.body_cache_hits = fr.body_cache_hits;
  return r;
}

util::StatusOr<MeasureResult> RunExactOrder(const RealFormula& formula,
                                            const MeasureOptions& options) {
  MUDB_ASSIGN_OR_RETURN(
      util::Rational v,
      NuExactOrder(formula, options.exact_order_max_vars));
  MeasureResult r;
  r.value = v.ToDouble();
  r.ci_lo = r.value;
  r.ci_hi = r.value;
  r.exact_rational = v;
  r.is_exact = true;
  r.method_used = Method::kExactOrder;
  return r;
}

util::StatusOr<MeasureResult> RunExact2D(const RealFormula& formula) {
  MUDB_ASSIGN_OR_RETURN(double v, NuExact2D(formula));
  MeasureResult r;
  r.value = v;
  r.ci_lo = v;
  r.ci_hi = v;
  r.is_exact = true;
  r.method_used = Method::kExact2D;
  return r;
}

}  // namespace

util::Status ValidateMeasureOptions(const MeasureOptions& options) {
  MUDB_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  return ValidateDelta(options.delta);
}

util::StatusOr<MeasureResult> ComputeNu(const RealFormula& formula,
                                        const MeasureOptions& options) {
  MUDB_RETURN_IF_ERROR(ValidateMeasureOptions(options));
  // Phase-level span over the whole dispatch (shortcut, exact, or sampled).
  obs::Span span("measure.compute");
  if (span.recording()) {
    span.Annotate("method", MethodToString(options.method));
    span.Annotate("epsilon", options.epsilon);
  }
  if (formula.kind() == RealFormula::Kind::kTrue) {
    return ExactConstantResult(1.0, options.method);
  }
  if (formula.kind() == RealFormula::Kind::kFalse) {
    return ExactConstantResult(0.0, options.method);
  }

  if (options.use_z3_shortcuts && OracleAvailable()) {
    // Certificates: unsat ⇒ ν = 0; valid ⇒ ν = 1. Solver failures and
    // timeouts fall through to the numeric engines. The solver reads the
    // compacted formula, as every engine does, so renumberings that share a
    // request-memo key get one solver input.
    const RealFormula compact = formula.Compacted();
    util::StatusOr<bool> sat = OracleIsSatisfiable(compact);
    if (sat.ok() && !*sat) return ExactConstantResult(0.0, options.method);
    util::StatusOr<bool> valid = OracleIsValid(compact);
    if (valid.ok() && *valid) return ExactConstantResult(1.0, options.method);
  }

  switch (options.method) {
    case Method::kExactOrder:
      return RunExactOrder(formula, options);
    case Method::kExact2D:
      return RunExact2D(formula);
    case Method::kAfpras:
      return RunAfpras(formula, options);
    case Method::kFpras:
      return RunFpras(formula, options);
    case Method::kAuto:
      break;
  }

  // kAuto: the exact engines when they are cheap and applicable, else the
  // AFPRAS with the caller's options whole (pool included), exactly as on
  // the direct kAfpras path.
  size_t used_vars = formula.UsedVariables().size();
  if (used_vars <= 2) return RunExact2D(formula);
  if (IsOrderFormula(formula) &&
      used_vars <= static_cast<size_t>(options.exact_order_max_vars)) {
    return RunExactOrder(formula, options);
  }
  return RunAfpras(formula, options);
}

util::StatusOr<MeasureResult> ComputeMeasure(const logic::Query& q,
                                             const model::Database& db,
                                             const model::Tuple& candidate,
                                             const MeasureOptions& options) {
  MUDB_RETURN_IF_ERROR(ValidateMeasureOptions(options));
  translate::GroundOptions gopts;
  gopts.max_atoms = options.max_ground_atoms;
  MUDB_ASSIGN_OR_RETURN(translate::GroundResult ground,
                        translate::GroundQuery(q, db, candidate, gopts));
  return ComputeNu(ground.formula, options);
}

util::StatusOr<MeasureResult> ComputeConditionalMeasure(
    const logic::Query& q, const model::Database& db,
    const model::Tuple& candidate, const NullRanges& ranges,
    const MeasureOptions& options) {
  MUDB_RETURN_IF_ERROR(ValidateMeasureOptions(options));
  translate::GroundOptions gopts;
  gopts.max_atoms = options.max_ground_atoms;
  MUDB_ASSIGN_OR_RETURN(translate::GroundResult ground,
                        translate::GroundQuery(q, db, candidate, gopts));
  // Variable z_i denotes null null_order[i]; align the ranges accordingly.
  VarRanges var_ranges(ground.null_order.size());
  for (size_t i = 0; i < ground.null_order.size(); ++i) {
    auto it = ranges.find(ground.null_order[i]);
    var_ranges[i] = it != ranges.end() ? it->second : VarRange::Free();
  }
  AfprasOptions aopts;
  aopts.epsilon = options.epsilon;
  aopts.delta = options.delta;
  aopts.pool = options.pool;
  util::Rng rng(options.seed);
  MUDB_ASSIGN_OR_RETURN(
      AfprasResult ar,
      ConditionalAfpras(ground.formula, var_ranges, aopts, rng));
  MeasureResult result;
  result.value = ar.estimate;
  result.ci_lo = ar.ci_lo;
  result.ci_hi = ar.ci_hi;
  result.is_exact = ground.formula.is_constant();
  result.epsilon_used = result.is_exact ? 0.0 : options.epsilon;
  result.method_used = Method::kAfpras;
  result.samples = ar.samples;
  result.sampled_dimension = ar.sampled_dimension;
  return result;
}

util::StatusOr<bool> IsCertainAnswer(const logic::Query& q,
                                     const model::Database& db,
                                     const model::Tuple& candidate) {
  MUDB_ASSIGN_OR_RETURN(translate::GroundResult ground,
                        translate::GroundQuery(q, db, candidate));
  return OracleIsValid(ground.formula);
}

util::StatusOr<bool> IsPossibleAnswer(const logic::Query& q,
                                      const model::Database& db,
                                      const model::Tuple& candidate) {
  MUDB_ASSIGN_OR_RETURN(translate::GroundResult ground,
                        translate::GroundQuery(q, db, candidate));
  return OracleIsSatisfiable(ground.formula);
}

}  // namespace mudb::measure
