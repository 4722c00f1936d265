// Quantifier-free formulae over the real field ⟨R, +, ·, <⟩.
//
// The grounding of Prop. 5.3 turns (query, database, candidate tuple) into a
// boolean combination of polynomial atoms p(z) ◦ 0 over variables z_1..z_k,
// one per numeric null. This module provides:
//   * point evaluation  (used by tests and the engine),
//   * asymptotic evaluation along a direction (Lemmas 8.2/8.4: the inner loop
//     of the AFPRAS),
//   * NNF / DNF conversion and linear homogenization (needed by the FPRAS of
//     Thm. 7.1),
//   * structural simplification.

#ifndef MUDB_SRC_CONSTRAINTS_REAL_FORMULA_H_
#define MUDB_SRC_CONSTRAINTS_REAL_FORMULA_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/poly/polynomial.h"
#include "src/util/status.h"

namespace mudb::constraints {

/// Comparison of a polynomial against zero.
enum class CmpOp { kLt, kLe, kEq, kNeq, kGe, kGt };

const char* CmpOpToString(CmpOp op);
/// The complement comparison: ¬(p < 0) is (p >= 0), etc.
CmpOp NegateCmpOp(CmpOp op);
/// Truth of `sign ◦ 0` where sign ∈ {-1, 0, +1}.
bool CmpTruthFromSign(CmpOp op, int sign);

/// An atomic constraint p(z) ◦ 0.
struct RealAtom {
  poly::Polynomial poly;
  CmpOp op;

  bool EvaluateAt(const std::vector<double>& point) const;

  /// Truth of the atom along direction a for k → ∞ (Lemma 8.4): the sign of
  /// p(k·a) for large k is the sign of the leading nonzero coefficient of the
  /// univariate restriction. Coefficients below `tol` (absolute) are zero.
  bool AsymptoticTruth(const std::vector<double>& a, double tol) const;

  /// Mixed variant for conditional measures: variables with scaled[i] true
  /// are sent to infinity along a_i, the others held at the value a_i.
  bool AsymptoticTruthPartial(const std::vector<double>& a,
                              const std::vector<bool>& scaled,
                              double tol) const;

  /// The same atom with the comparison complemented.
  RealAtom Negated() const { return {poly, NegateCmpOp(op)}; }

  std::string ToString() const;

  bool operator==(const RealAtom& other) const {
    return op == other.op && poly == other.poly;
  }
};

/// A conjunction of atoms: one disjunct of a DNF.
using Conjunction = std::vector<RealAtom>;

/// A quantifier-free formula: boolean tree over RealAtoms. Value type.
class RealFormula {
 public:
  enum class Kind { kTrue, kFalse, kAtom, kAnd, kOr, kNot };

  /// The formula "true".
  static RealFormula True();
  /// The formula "false".
  static RealFormula False();
  static RealFormula Atom(RealAtom atom);
  /// Convenience: p ◦ 0.
  static RealFormula Cmp(poly::Polynomial p, CmpOp op);
  /// n-ary conjunction; empty = true. Constant children are folded.
  static RealFormula And(std::vector<RealFormula> children);
  /// n-ary disjunction; empty = false. Constant children are folded.
  static RealFormula Or(std::vector<RealFormula> children);
  static RealFormula Not(RealFormula child);

  RealFormula() : kind_(Kind::kTrue) {}

  Kind kind() const { return kind_; }
  bool is_constant() const {
    return kind_ == Kind::kTrue || kind_ == Kind::kFalse;
  }
  /// The atom; requires kind() == kAtom.
  const RealAtom& atom() const;
  const std::vector<RealFormula>& children() const { return children_; }

  /// Number of atoms in the tree.
  size_t AtomCount() const;
  /// 1 + the largest variable index mentioned by any atom.
  int NumVariables() const;
  /// True if every atom's polynomial is affine (the CQ(+,<) image).
  bool IsLinear() const;
  /// Collects all atoms (duplicates included, pre-order).
  void CollectAtoms(std::vector<RealAtom>* out) const;
  /// Indices of variables actually occurring in some atom.
  std::set<int> UsedVariables() const;
  /// Renames variables according to new_index (see Polynomial::RemapVariables).
  RealFormula RemapVariables(const std::vector<int>& new_index) const;
  /// The formula over z_0..z_{d−1}: its d used variables renumbered in
  /// index order. Every engine measures this form (§9: only the nulls that
  /// occur are sampled) and the request memo keys it, so a formula and any
  /// order-preserving renumbering of it measure and key alike. When `used`
  /// is non-null it receives the original indices: (*used)[i] is the
  /// variable that became z_i. A constant formula comes back unchanged.
  RealFormula Compacted(std::vector<int>* used = nullptr) const;

  /// Truth at a point.
  bool EvaluateAt(const std::vector<double>& point) const;

  /// lim_{k→∞} f_{φ,a}(k) (Lemma 8.2 guarantees the limit exists; this
  /// computes it via per-atom leading-coefficient analysis, Lemma 8.4).
  /// `tol` is the absolute coefficient tolerance.
  bool AsymptoticTruth(const std::vector<double>& a, double tol = 1e-12) const;

  /// Mixed asymptotic/pointwise truth (see RealAtom::AsymptoticTruthPartial).
  bool AsymptoticTruthPartial(const std::vector<double>& a,
                              const std::vector<bool>& scaled,
                              double tol = 1e-12) const;

  /// Negation-normal form: negations pushed onto atoms (atoms absorb them by
  /// complementing the comparison, so the result is negation-free).
  RealFormula ToNnf() const;

  /// Disjunctive normal form as a list of conjunctions. Fails with
  /// ResourceExhausted if the DNF would exceed `max_disjuncts`.
  util::StatusOr<std::vector<Conjunction>> ToDnf(
      size_t max_disjuncts = 100000) const;

  std::string ToString() const;

 private:
  Kind kind_;
  std::vector<RealAtom> atom_;           // size 1 iff kind == kAtom
  std::vector<RealFormula> children_;    // for kAnd/kOr/kNot
};

/// Homogenizes a conjunction of *linear* atoms: drops the constant term of
/// every atom (c·z ◦ c' becomes c·z ◦ 0). Precondition: all atoms linear.
/// This is the φ → φ̃ step of Thm. 7.1; ν(φ) equals the unit-ball volume
/// fraction of φ̃ (cf. [11]).
Conjunction HomogenizeLinear(const Conjunction& conj);

/// Renders φ with variable names supplied by `var_name` — e.g. the original
/// null marks via a GroundResult/EvalResult null_order:
///   FormatFormula(f, [&](int i) { return "⊤" + std::to_string(order[i]); })
std::string FormatFormula(const RealFormula& formula,
                          const std::function<std::string(int)>& var_name);

std::ostream& operator<<(std::ostream& os, const RealFormula& f);

}  // namespace mudb::constraints

#endif  // MUDB_SRC_CONSTRAINTS_REAL_FORMULA_H_
