// Grounding: (query, database, candidate tuple) → quantifier-free formula
// over ⟨R, +, ·, <⟩ (Prop. 5.3 / Thm. 5.4 of the paper).
//
// Steps:
//  1. Base nulls stay in place and compare as values (Prop. 5.2): ⊥_i equals
//     only itself and no constant, which is what a bijective valuation onto
//     fresh constants gives, without copying the database. The active base
//     domain holds the database's constants and base nulls.
//  2. Every numeric null ⊤_i becomes the real variable z_i (indices assigned
//     in first-appearance order over the database, then the candidate tuple).
//  3. Base quantifiers expand into finite conjunctions/disjunctions over the
//     active base domain; numeric quantifiers over the active numeric domain
//     C_num(D) ∪ N_num(D) (constants and z-variables).
//  4. Relational atoms expand into disjunctions over the relation's tuples;
//     numeric positions contribute equality atoms between polynomials.
//
// The result satisfies μ(q, D, (a,s)) = ν(φ) (Thm. 5.4), which the engines in
// src/measure compute or approximate.

#ifndef MUDB_SRC_TRANSLATE_GROUND_H_
#define MUDB_SRC_TRANSLATE_GROUND_H_

#include <vector>

#include "src/constraints/real_formula.h"
#include "src/logic/formula.h"
#include "src/model/database.h"
#include "src/util/status.h"

namespace mudb::translate {

/// Output of grounding: φ(z_0..z_{k-1}) plus the meaning of each variable.
struct GroundResult {
  constraints::RealFormula formula;
  /// null_order[i] is the numeric null id denoted by variable z_i. Variables
  /// cover all numeric nulls of the database (in first-appearance order),
  /// whether or not they occur in the formula.
  std::vector<model::NullId> null_order;
};

/// Options controlling the active-domain expansion.
struct GroundOptions {
  /// Hard cap on the number of atoms produced, guarding against blow-up of
  /// quantifier expansion on large databases. Exceeding it fails with
  /// ResourceExhausted (use the CQ pipeline in src/engine for large inputs).
  /// Per-call dispatch plumbs MeasureOptions::max_ground_atoms here, so a
  /// serving layer (src/service/) can bound the grounding work any single
  /// request may cost before its sampling even starts.
  size_t max_atoms = 2'000'000;
};

/// Grounds query `q` on database `db` for a candidate answer `candidate`
/// (one model::Value per output variable of `q`, of matching sorts; a null
/// outside `db` equals nothing in it). For Boolean queries pass an empty
/// candidate.
util::StatusOr<GroundResult> GroundQuery(const logic::Query& q,
                                         const model::Database& db,
                                         const model::Tuple& candidate,
                                         const GroundOptions& options = {});

}  // namespace mudb::translate

#endif  // MUDB_SRC_TRANSLATE_GROUND_H_
