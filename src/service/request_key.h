// Canonical signatures for whole measurement requests.
//
// A request's result — grounded formula × measurement options — is a pure
// function of (compacted formula content, method, ε, δ, seed, engine
// knobs): every engine measures RealFormula::Compacted(), the used
// variables renumbered z_0..z_{d−1} in index order (measure.h), and the
// randomized engines derive every sample path from the seed, never from
// wall-clock, scheduling, or thread count. RequestSignature captures exactly
// that function's domain as a 128-bit key, which is what lets the service
// memoize full results (a repeated candidate skips sampling entirely) while
// staying bit-identical to sequential evaluation.
//
// Keying the compacted formula is what makes a database write cheap:
// engine::EvaluateCq numbers z-variables by each null's position among all
// of the database's nulls, so refining one null shifts later answers'
// indices. That renumbering preserves order, so their compacted formulas —
// and keys — do not move, and they stay memo hits.
//
// Deliberately EXCLUDED from the signature: the pool and cache pointers.
// The determinism contract (BUILDING.md, "Threading") guarantees they
// cannot change a result, so folding them in would only fragment the
// cache.

#ifndef MUDB_SRC_SERVICE_REQUEST_KEY_H_
#define MUDB_SRC_SERVICE_REQUEST_KEY_H_

#include "src/constraints/real_formula.h"
#include "src/convex/canonical.h"
#include "src/measure/measure.h"

namespace mudb::service {

/// The canonical key of (formula, options): equal keys imply bit-identical
/// ComputeNu results. The compacted formula's content is keyed structurally
/// — kinds, child lists, comparison ops, and every monomial's exponents and
/// exact coefficient bits — so formulae equal up to an order-preserving
/// renumbering collide (that is the dedup) and nothing is lost to decimal
/// rendering. Boolean-equivalent but structurally different formulae, and
/// renumberings that reorder variables, intentionally get distinct keys:
/// their sampled estimates differ, and the memo must never conflate them.
convex::CanonicalBodyKey RequestSignature(
    const constraints::RealFormula& formula,
    const measure::MeasureOptions& options);

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_REQUEST_KEY_H_
