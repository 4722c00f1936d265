#include "src/constraints/real_formula.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "src/poly/univariate.h"

namespace mudb::constraints {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNeq:
      return "!=";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kGt:
      return ">";
  }
  return "?";
}

CmpOp NegateCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kEq:
      return CmpOp::kNeq;
    case CmpOp::kNeq:
      return CmpOp::kEq;
    case CmpOp::kGe:
      return CmpOp::kLt;
    case CmpOp::kGt:
      return CmpOp::kLe;
  }
  return CmpOp::kEq;
}

bool CmpTruthFromSign(CmpOp op, int sign) {
  switch (op) {
    case CmpOp::kLt:
      return sign < 0;
    case CmpOp::kLe:
      return sign <= 0;
    case CmpOp::kEq:
      return sign == 0;
    case CmpOp::kNeq:
      return sign != 0;
    case CmpOp::kGe:
      return sign >= 0;
    case CmpOp::kGt:
      return sign > 0;
  }
  return false;
}

bool RealAtom::EvaluateAt(const std::vector<double>& point) const {
  double v = poly.Evaluate(point);
  int sign = v > 0 ? 1 : (v < 0 ? -1 : 0);
  return CmpTruthFromSign(op, sign);
}

bool RealAtom::AsymptoticTruth(const std::vector<double>& a,
                               double tol) const {
  std::vector<double> restricted = poly.RestrictToDirection(a);
  int sign = poly::AsymptoticSign(restricted, tol);
  return CmpTruthFromSign(op, sign);
}

bool RealAtom::AsymptoticTruthPartial(const std::vector<double>& a,
                                      const std::vector<bool>& scaled,
                                      double tol) const {
  std::vector<double> restricted = poly.RestrictToDirectionPartial(a, scaled);
  int sign = poly::AsymptoticSign(restricted, tol);
  return CmpTruthFromSign(op, sign);
}

std::string RealAtom::ToString() const {
  return poly.ToString() + " " + CmpOpToString(op) + " 0";
}

RealFormula RealFormula::True() {
  RealFormula f;
  f.kind_ = Kind::kTrue;
  return f;
}

RealFormula RealFormula::False() {
  RealFormula f;
  f.kind_ = Kind::kFalse;
  return f;
}

RealFormula RealFormula::Atom(RealAtom atom) {
  // Fold atoms over constant polynomials immediately.
  if (atom.poly.IsConstant()) {
    double c = atom.poly.ConstantTerm();
    int sign = c > 0 ? 1 : (c < 0 ? -1 : 0);
    return CmpTruthFromSign(atom.op, sign) ? True() : False();
  }
  RealFormula f;
  f.kind_ = Kind::kAtom;
  f.atom_.push_back(std::move(atom));
  return f;
}

RealFormula RealFormula::Cmp(poly::Polynomial p, CmpOp op) {
  return Atom(RealAtom{std::move(p), op});
}

RealFormula RealFormula::And(std::vector<RealFormula> children) {
  std::vector<RealFormula> kept;
  for (RealFormula& c : children) {
    if (c.kind_ == Kind::kFalse) return False();
    if (c.kind_ == Kind::kTrue) continue;
    if (c.kind_ == Kind::kAnd) {
      for (RealFormula& g : c.children_) kept.push_back(std::move(g));
    } else {
      kept.push_back(std::move(c));
    }
  }
  if (kept.empty()) return True();
  if (kept.size() == 1) return std::move(kept[0]);
  RealFormula f;
  f.kind_ = Kind::kAnd;
  f.children_ = std::move(kept);
  return f;
}

RealFormula RealFormula::Or(std::vector<RealFormula> children) {
  std::vector<RealFormula> kept;
  for (RealFormula& c : children) {
    if (c.kind_ == Kind::kTrue) return True();
    if (c.kind_ == Kind::kFalse) continue;
    if (c.kind_ == Kind::kOr) {
      for (RealFormula& g : c.children_) kept.push_back(std::move(g));
    } else {
      kept.push_back(std::move(c));
    }
  }
  if (kept.empty()) return False();
  if (kept.size() == 1) return std::move(kept[0]);
  RealFormula f;
  f.kind_ = Kind::kOr;
  f.children_ = std::move(kept);
  return f;
}

RealFormula RealFormula::Not(RealFormula child) {
  switch (child.kind_) {
    case Kind::kTrue:
      return False();
    case Kind::kFalse:
      return True();
    case Kind::kAtom:
      return Atom(child.atom_[0].Negated());
    case Kind::kNot:
      return std::move(child.children_[0]);
    default:
      break;
  }
  RealFormula f;
  f.kind_ = Kind::kNot;
  f.children_.push_back(std::move(child));
  return f;
}

const RealAtom& RealFormula::atom() const {
  MUDB_CHECK(kind_ == Kind::kAtom);
  return atom_[0];
}

size_t RealFormula::AtomCount() const {
  if (kind_ == Kind::kAtom) return 1;
  size_t n = 0;
  for (const RealFormula& c : children_) n += c.AtomCount();
  return n;
}

int RealFormula::NumVariables() const {
  if (kind_ == Kind::kAtom) return atom_[0].poly.NumVariables();
  int n = 0;
  for (const RealFormula& c : children_) n = std::max(n, c.NumVariables());
  return n;
}

bool RealFormula::IsLinear() const {
  if (kind_ == Kind::kAtom) return atom_[0].poly.IsLinear();
  for (const RealFormula& c : children_) {
    if (!c.IsLinear()) return false;
  }
  return true;
}

void RealFormula::CollectAtoms(std::vector<RealAtom>* out) const {
  if (kind_ == Kind::kAtom) {
    out->push_back(atom_[0]);
    return;
  }
  for (const RealFormula& c : children_) c.CollectAtoms(out);
}

std::set<int> RealFormula::UsedVariables() const {
  std::set<int> out;
  std::vector<RealAtom> atoms;
  CollectAtoms(&atoms);
  for (const RealAtom& a : atoms) a.poly.CollectVariableIndices(&out);
  return out;
}

RealFormula RealFormula::RemapVariables(
    const std::vector<int>& new_index) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return *this;
    case Kind::kAtom:
      return Atom(
          RealAtom{atom_[0].poly.RemapVariables(new_index), atom_[0].op});
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      std::vector<RealFormula> cs;
      cs.reserve(children_.size());
      for (const RealFormula& c : children_) {
        cs.push_back(c.RemapVariables(new_index));
      }
      if (kind_ == Kind::kAnd) return And(std::move(cs));
      if (kind_ == Kind::kOr) return Or(std::move(cs));
      return Not(std::move(cs[0]));
    }
  }
  return *this;
}

RealFormula RealFormula::Compacted(std::vector<int>* used) const {
  std::set<int> vars = UsedVariables();
  std::vector<int> new_index(vars.empty() ? 0 : *vars.rbegin() + 1, -1);
  int next = 0;
  for (int v : vars) new_index[v] = next++;
  if (used != nullptr) used->assign(vars.begin(), vars.end());
  return RemapVariables(new_index);
}

bool RealFormula::EvaluateAt(const std::vector<double>& point) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return atom_[0].EvaluateAt(point);
    case Kind::kAnd:
      for (const RealFormula& c : children_) {
        if (!c.EvaluateAt(point)) return false;
      }
      return true;
    case Kind::kOr:
      for (const RealFormula& c : children_) {
        if (c.EvaluateAt(point)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_[0].EvaluateAt(point);
  }
  return false;
}

bool RealFormula::AsymptoticTruth(const std::vector<double>& a,
                                  double tol) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return atom_[0].AsymptoticTruth(a, tol);
    case Kind::kAnd:
      for (const RealFormula& c : children_) {
        if (!c.AsymptoticTruth(a, tol)) return false;
      }
      return true;
    case Kind::kOr:
      for (const RealFormula& c : children_) {
        if (c.AsymptoticTruth(a, tol)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_[0].AsymptoticTruth(a, tol);
  }
  return false;
}

bool RealFormula::AsymptoticTruthPartial(const std::vector<double>& a,
                                         const std::vector<bool>& scaled,
                                         double tol) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return atom_[0].AsymptoticTruthPartial(a, scaled, tol);
    case Kind::kAnd:
      for (const RealFormula& c : children_) {
        if (!c.AsymptoticTruthPartial(a, scaled, tol)) return false;
      }
      return true;
    case Kind::kOr:
      for (const RealFormula& c : children_) {
        if (c.AsymptoticTruthPartial(a, scaled, tol)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_[0].AsymptoticTruthPartial(a, scaled, tol);
  }
  return false;
}

RealFormula RealFormula::ToNnf() const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      return *this;
    case Kind::kAnd: {
      std::vector<RealFormula> cs;
      cs.reserve(children_.size());
      for (const RealFormula& c : children_) cs.push_back(c.ToNnf());
      return And(std::move(cs));
    }
    case Kind::kOr: {
      std::vector<RealFormula> cs;
      cs.reserve(children_.size());
      for (const RealFormula& c : children_) cs.push_back(c.ToNnf());
      return Or(std::move(cs));
    }
    case Kind::kNot: {
      const RealFormula& g = children_[0];
      switch (g.kind_) {
        case Kind::kTrue:
          return False();
        case Kind::kFalse:
          return True();
        case Kind::kAtom:
          return Atom(g.atom_[0].Negated());
        case Kind::kNot:
          return g.children_[0].ToNnf();
        case Kind::kAnd: {
          std::vector<RealFormula> cs;
          for (const RealFormula& c : g.children_) {
            cs.push_back(Not(c).ToNnf());
          }
          return Or(std::move(cs));
        }
        case Kind::kOr: {
          std::vector<RealFormula> cs;
          for (const RealFormula& c : g.children_) {
            cs.push_back(Not(c).ToNnf());
          }
          return And(std::move(cs));
        }
      }
      break;
    }
  }
  return *this;
}

namespace {

util::Status DnfOfNnf(const RealFormula& f, size_t max_disjuncts,
                      std::vector<Conjunction>* out) {
  switch (f.kind()) {
    case RealFormula::Kind::kTrue:
      out->push_back({});  // empty conjunction = true
      return util::Status::OK();
    case RealFormula::Kind::kFalse:
      return util::Status::OK();
    case RealFormula::Kind::kAtom:
      out->push_back({f.atom()});
      return util::Status::OK();
    case RealFormula::Kind::kOr: {
      for (const RealFormula& c : f.children()) {
        MUDB_RETURN_IF_ERROR(DnfOfNnf(c, max_disjuncts, out));
        if (out->size() > max_disjuncts) {
          return util::Status::ResourceExhausted("DNF too large");
        }
      }
      return util::Status::OK();
    }
    case RealFormula::Kind::kAnd: {
      std::vector<Conjunction> acc{{}};
      for (const RealFormula& c : f.children()) {
        std::vector<Conjunction> child_dnf;
        MUDB_RETURN_IF_ERROR(DnfOfNnf(c, max_disjuncts, &child_dnf));
        std::vector<Conjunction> next;
        next.reserve(acc.size() * child_dnf.size());
        for (const Conjunction& left : acc) {
          for (const Conjunction& right : child_dnf) {
            Conjunction merged = left;
            merged.insert(merged.end(), right.begin(), right.end());
            next.push_back(std::move(merged));
            if (next.size() > max_disjuncts) {
              return util::Status::ResourceExhausted("DNF too large");
            }
          }
        }
        acc = std::move(next);
        if (acc.empty()) break;  // a child was unsatisfiable (empty DNF)
      }
      for (Conjunction& c : acc) out->push_back(std::move(c));
      return util::Status::OK();
    }
    case RealFormula::Kind::kNot:
      return util::Status::Internal("DNF conversion expects NNF input");
  }
  return util::Status::Internal("unreachable");
}

}  // namespace

util::StatusOr<std::vector<Conjunction>> RealFormula::ToDnf(
    size_t max_disjuncts) const {
  std::vector<Conjunction> out;
  MUDB_RETURN_IF_ERROR(DnfOfNnf(ToNnf(), max_disjuncts, &out));
  return out;
}

Conjunction HomogenizeLinear(const Conjunction& conj) {
  Conjunction out;
  out.reserve(conj.size());
  for (const RealAtom& atom : conj) {
    MUDB_CHECK(atom.poly.IsLinear());
    out.push_back(RealAtom{atom.poly.DropConstant(), atom.op});
  }
  return out;
}

std::string RealFormula::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return atom_[0].ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::ostringstream out;
      out << "(";
      const char* sep = kind_ == Kind::kAnd ? " && " : " || ";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << sep;
        out << children_[i].ToString();
      }
      out << ")";
      return out.str();
    }
    case Kind::kNot:
      return "!(" + children_[0].ToString() + ")";
  }
  return "?";
}

std::string FormatFormula(const RealFormula& formula,
                          const std::function<std::string(int)>& var_name) {
  switch (formula.kind()) {
    case RealFormula::Kind::kTrue:
      return "true";
    case RealFormula::Kind::kFalse:
      return "false";
    case RealFormula::Kind::kAtom:
      return formula.atom().poly.ToString(var_name) + " " +
             CmpOpToString(formula.atom().op) + " 0";
    case RealFormula::Kind::kAnd:
    case RealFormula::Kind::kOr: {
      std::ostringstream out;
      out << "(";
      const char* sep =
          formula.kind() == RealFormula::Kind::kAnd ? " && " : " || ";
      for (size_t i = 0; i < formula.children().size(); ++i) {
        if (i > 0) out << sep;
        out << FormatFormula(formula.children()[i], var_name);
      }
      out << ")";
      return out.str();
    }
    case RealFormula::Kind::kNot:
      return "!(" + FormatFormula(formula.children()[0], var_name) + ")";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const RealFormula& f) {
  return os << f.ToString();
}

}  // namespace mudb::constraints
