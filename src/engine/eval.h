// Candidate-answer enumeration for conjunctive queries over incomplete
// databases — the paper's §9 pipeline (what Postgres + the "compact
// representation of φ_{q,D,a,s}" did in the authors' prototype).
//
// Semantics: base nulls behave naively (Prop. 5.2): the database is read
// in place and base values compare as model::Values, so a null equals only
// itself and no query constant. Numeric nulls flow through joins and
// comparisons symbolically. Every join witness of an output tuple
// contributes one DNF disjunct: the conjunction of the arithmetic atoms the
// witness requires, with numeric nulls replaced by z-variables. The measure
// of the candidate is then ν of the disjunction (Thm. 5.4), evaluated by the
// engines in src/measure.
//
// Witnesses whose constraints force a numeric null to equal a point value
// (z = c, z = z') span measure-zero sets; they are dropped, which does not
// change μ.

#ifndef MUDB_SRC_ENGINE_EVAL_H_
#define MUDB_SRC_ENGINE_EVAL_H_

#include <cstdint>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/engine/cq.h"
#include "src/model/database.h"
#include "src/util/status.h"

namespace mudb::engine {

/// One candidate answer: an output tuple (which may contain nulls) and the
/// grounded constraint formula whose ν is its measure of certainty.
struct Candidate {
  model::Tuple output;
  constraints::RealFormula constraint;
  /// Number of join witnesses contributing to this tuple (after pruning).
  size_t witnesses = 0;
  /// True when some fully-constant witness satisfied all conditions, i.e.
  /// the tuple is an answer regardless of the nulls (μ = 1).
  bool certain = false;
};

struct EvalResult {
  /// Candidates in enumeration order (at most cq.limit if set).
  std::vector<Candidate> candidates;
  /// Meaning of constraint variables: z_i is numeric null null_order[i].
  std::vector<model::NullId> null_order;
  /// Total witnesses enumerated (including pruned ones).
  size_t witnesses_enumerated = 0;
};

/// Evaluates a conjunctive query, producing candidates with constraints.
/// Fails with ResourceExhausted past 50,000,000 enumerated witnesses.
util::StatusOr<EvalResult> EvaluateCq(const model::Database& db,
                                      const ConjunctiveQuery& cq);

/// Evaluates a union of conjunctive queries: branch results are merged by
/// output tuple (first-appearance order across branches, branch order first)
/// with constraints OR-ed; a tuple certain in any branch is certain. Branch
/// LIMITs are ignored — the union's `limit` applies to the merged result.
util::StatusOr<EvalResult> EvaluateUnion(const model::Database& db,
                                         const UnionQuery& query);

}  // namespace mudb::engine

#endif  // MUDB_SRC_ENGINE_EVAL_H_
