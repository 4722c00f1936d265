#include "src/measure/nu_exact.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <vector>

#include "src/geom/arcs.h"
#include "src/poly/univariate.h"

namespace mudb::measure {

namespace {

using constraints::CmpOp;
using constraints::RealAtom;
using constraints::RealFormula;
using poly::Polynomial;
using util::Rational;

// A normalized order atom: sign-of-variable or comparison of two variables.
struct OrderAtom {
  bool is_pair;  // true: z_i - z_j ◦ 0; false: z_i ◦ 0
  int i;
  int j;
  CmpOp op;
};

// Extracts (coeff per variable) of the homogenized linear atom. Returns true
// and fills `out` if the atom is an order constraint.
bool NormalizeOrderAtom(const RealAtom& atom, OrderAtom* out) {
  if (!atom.poly.IsLinear()) return false;
  Polynomial hom = atom.poly.DropConstant();
  std::set<int> vars;
  hom.CollectVariableIndices(&vars);
  if (vars.empty() || vars.size() > 2) return false;
  std::vector<int> vlist(vars.begin(), vars.end());
  if (vars.size() == 1) {
    double c = hom.LinearCoefficient(vlist[0]);
    if (c == 0.0) return false;
    out->is_pair = false;
    out->i = vlist[0];
    out->j = -1;
    // c·z ◦ 0 with c < 0 mirrors the comparison (z > 0 etc.); =/≠ unchanged.
    out->op = atom.op;
    if (c < 0) {
      switch (atom.op) {
        case CmpOp::kLt:
          out->op = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          out->op = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          out->op = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          out->op = CmpOp::kLe;
          break;
        default:
          out->op = atom.op;
          break;
      }
    }
    return true;
  }
  double c1 = hom.LinearCoefficient(vlist[0]);
  double c2 = hom.LinearCoefficient(vlist[1]);
  if (c1 == 0.0 || c2 == 0.0) return false;
  // Must be a scaled difference c·(z_i − z_j).
  if (std::fabs(c1 + c2) > 1e-12 * (std::fabs(c1) + std::fabs(c2))) {
    return false;
  }
  out->is_pair = true;
  // c1·z_a + c2·z_b with c2 = −c1 is c·(z_i − z_j) where i is the variable
  // carrying the positive coefficient; dividing by c > 0 keeps the operator.
  if (c1 > 0) {
    out->i = vlist[0];
    out->j = vlist[1];
  } else {
    out->i = vlist[1];
    out->j = vlist[0];
  }
  out->op = atom.op;
  return true;
}

// Evaluates the boolean structure of `f` with atom truth given by `truth`
// (parallel to CollectAtoms pre-order).
bool EvalWithAtomTruth(const RealFormula& f, const std::vector<bool>& truth,
                       size_t* cursor) {
  switch (f.kind()) {
    case RealFormula::Kind::kTrue:
      return true;
    case RealFormula::Kind::kFalse:
      return false;
    case RealFormula::Kind::kAtom:
      return truth[(*cursor)++];
    case RealFormula::Kind::kAnd: {
      bool all = true;
      for (const RealFormula& c : f.children()) {
        all = EvalWithAtomTruth(c, truth, cursor) && all;
      }
      return all;
    }
    case RealFormula::Kind::kOr: {
      bool any = false;
      for (const RealFormula& c : f.children()) {
        any = EvalWithAtomTruth(c, truth, cursor) || any;
      }
      return any;
    }
    case RealFormula::Kind::kNot:
      return !EvalWithAtomTruth(f.children()[0], truth, cursor);
  }
  return false;
}

}  // namespace

bool IsOrderFormula(const constraints::RealFormula& formula) {
  std::vector<RealAtom> atoms;
  formula.CollectAtoms(&atoms);
  OrderAtom dummy;
  for (const RealAtom& a : atoms) {
    if (!NormalizeOrderAtom(a, &dummy)) return false;
  }
  return true;
}

util::StatusOr<util::Rational> NuExactOrder(
    const constraints::RealFormula& formula, int max_vars) {
  if (formula.kind() == RealFormula::Kind::kTrue) return Rational(1);
  if (formula.kind() == RealFormula::Kind::kFalse) return Rational(0);

  const RealFormula compact = formula.Compacted();
  const int k = compact.NumVariables();
  if (k > max_vars) {
    return util::Status::ResourceExhausted(
        "order-exact enumeration over " + std::to_string(k) +
        " variables exceeds max_vars = " + std::to_string(max_vars));
  }

  std::vector<RealAtom> atoms;
  compact.CollectAtoms(&atoms);
  std::vector<OrderAtom> order_atoms(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (!NormalizeOrderAtom(atoms[i], &order_atoms[i])) {
      return util::Status::InvalidArgument(
          "not an order formula; atom: " + atoms[i].ToString());
    }
  }

  // Enumerate ascending orders (permutations) and split points j: variables
  // perm[0..j-1] are negative (in ascending order), perm[j..k-1] positive.
  std::vector<int> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<int> position(k);
  std::vector<bool> truth(atoms.size());
  Rational total(0);
  const Rational inv_2k = Rational(1, int64_t{1} << k);
  do {
    for (int p = 0; p < k; ++p) position[perm[p]] = p;
    for (int j = 0; j <= k; ++j) {
      // Evaluate each atom under this signed interleaving.
      for (size_t a = 0; a < order_atoms.size(); ++a) {
        const OrderAtom& oa = order_atoms[a];
        int sign;
        if (oa.is_pair) {
          sign = position[oa.i] < position[oa.j] ? -1 : 1;
        } else {
          sign = position[oa.i] < j ? -1 : 1;
        }
        truth[a] = constraints::CmpTruthFromSign(oa.op, sign);
      }
      size_t cursor = 0;
      if (EvalWithAtomTruth(compact, truth, &cursor)) {
        Rational prob = inv_2k / (Rational::Factorial(j) *
                                  Rational::Factorial(k - j));
        total += prob;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return total;
}

util::StatusOr<double> NuExact2D(const constraints::RealFormula& formula) {
  if (formula.kind() == RealFormula::Kind::kTrue) return 1.0;
  if (formula.kind() == RealFormula::Kind::kFalse) return 0.0;

  const RealFormula compact = formula.Compacted();
  const int dim = compact.NumVariables();
  if (dim > 2) {
    return util::Status::InvalidArgument(
        "NuExact2D requires at most 2 variables, got " + std::to_string(dim));
  }
  if (dim == 1) {
    double pos = compact.AsymptoticTruth({1.0}) ? 1.0 : 0.0;
    double neg = compact.AsymptoticTruth({-1.0}) ? 1.0 : 0.0;
    return 0.5 * (pos + neg);
  }

  // Two variables: the asymptotic truth along direction (cos θ, sin θ) can
  // change only where some homogeneous component of some atom vanishes.
  std::vector<RealAtom> atoms;
  compact.CollectAtoms(&atoms);
  std::vector<double> angles{-M_PI, -M_PI / 2, 0.0, M_PI / 2};
  for (const RealAtom& atom : atoms) {
    int deg = atom.poly.Degree();
    for (int d = 1; d <= deg; ++d) {
      // h_d(1, t): coefficient of t^e is the coefficient of x^{d-e} y^e.
      poly::UniPoly h(d + 1, 0.0);
      bool nonzero = false;
      for (int e = 0; e <= d; ++e) {
        poly::Monomial m;
        if (d - e > 0) m.push_back(static_cast<uint32_t>(d - e));
        if (e > 0) {
          m.resize(2, 0);
          m[1] = static_cast<uint32_t>(e);
        }
        h[e] = atom.poly.Coefficient(m);
        if (h[e] != 0.0) nonzero = true;
      }
      if (!nonzero) continue;
      poly::UniPoly trimmed = poly::TrimLeading(h, 0.0);
      if (trimmed.size() <= 1) continue;  // constant in t: no roots
      // Cauchy root bound: all real roots lie in [-B, B].
      double lead = std::fabs(trimmed.back());
      double maxc = 0.0;
      for (size_t i = 0; i + 1 < trimmed.size(); ++i) {
        maxc = std::max(maxc, std::fabs(trimmed[i]));
      }
      double bound = 1.0 + maxc / lead;
      for (double t : poly::IsolateRealRoots(trimmed, -bound, bound)) {
        double theta = std::atan(t);
        angles.push_back(theta);
        angles.push_back(theta > 0 ? theta - M_PI : theta + M_PI);
      }
    }
  }
  std::sort(angles.begin(), angles.end());
  angles.erase(std::unique(angles.begin(), angles.end(),
                           [](double a, double b) {
                             return std::fabs(a - b) < 1e-13;
                           }),
               angles.end());

  geom::ArcSet satisfied;
  const size_t n = angles.size();
  for (size_t i = 0; i < n; ++i) {
    double lo = angles[i];
    double hi = (i + 1 < n) ? angles[i + 1] : angles[0] + 2 * M_PI;
    if (hi - lo < 1e-15) continue;
    double mid = 0.5 * (lo + hi);
    std::vector<double> dir{std::cos(mid), std::sin(mid)};
    if (compact.AsymptoticTruth(dir, 1e-12)) {
      satisfied.AddInterval(lo, hi);
    }
  }
  return satisfied.Fraction();
}

}  // namespace mudb::measure
