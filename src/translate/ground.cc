#include "src/translate/ground.h"

#include <string>
#include <unordered_map>

namespace mudb::translate {

namespace {

using constraints::CmpOp;
using constraints::RealAtom;
using constraints::RealFormula;
using logic::AtomArg;
using logic::BaseArg;
using logic::Formula;
using logic::Term;
using model::Database;
using model::NullId;
using model::Relation;
using model::Sort;
using model::Tuple;
using model::Value;
using poly::Polynomial;

/// Variable bindings during the active-domain expansion: base variables map
/// to base values (a constant or a base null, compared as Values, so a null
/// equals only itself: Prop. 5.2), numeric variables map to polynomials over
/// z (a constant or a z-variable).
struct Env {
  std::unordered_map<std::string, Value> base;
  std::unordered_map<std::string, Polynomial> num;
};

class Grounder {
 public:
  Grounder(const Database& db, const GroundOptions& options)
      : db_(db), options_(options) {
    for (NullId id : db.CollectNumNullIds()) {
      z_index_.emplace(id, static_cast<int>(null_order_.size()));
      null_order_.push_back(id);
    }
    // Active domains per the paper's semantics: quantifiers range over the
    // elements of the database.
    for (const auto& [name, rel] : db.relations()) {
      for (const Tuple& t : rel.tuples()) {
        for (const Value& v : t) {
          switch (v.kind()) {
            case Value::Kind::kBaseConst:
            case Value::Kind::kBaseNull:
              if (seen_base_.insert(v).second) base_domain_.push_back(v);
              break;
            case Value::Kind::kNumConst:
              if (seen_num_.insert(v.num_const()).second) {
                num_domain_.push_back(Polynomial::Constant(v.num_const()));
              }
              break;
            case Value::Kind::kNumNull:
              if (seen_num_null_.insert(v.null_id()).second) {
                num_domain_.push_back(NumValueToPoly(v));
              }
              break;
          }
        }
      }
    }
  }

  /// Registers a numeric null from the candidate tuple that does not occur
  /// in the database (gets a fresh z variable).
  void EnsureNumNull(NullId id) {
    if (z_index_.emplace(id, static_cast<int>(null_order_.size())).second) {
      null_order_.push_back(id);
    }
  }

  Polynomial NumValueToPoly(const Value& v) {
    if (v.kind() == Value::Kind::kNumConst) {
      return Polynomial::Constant(v.num_const());
    }
    MUDB_CHECK(v.kind() == Value::Kind::kNumNull);
    auto it = z_index_.find(v.null_id());
    MUDB_CHECK(it != z_index_.end());
    return Polynomial::Variable(it->second);
  }

  const std::vector<NullId>& null_order() const { return null_order_; }

  util::StatusOr<RealFormula> Ground(const Formula& f, Env* env) {
    switch (f.kind()) {
      case Formula::Kind::kRelAtom:
        return GroundRelAtom(f, env);
      case Formula::Kind::kBaseEq: {
        MUDB_ASSIGN_OR_RETURN(Value lhs, ResolveBase(f.base_lhs(), *env));
        MUDB_ASSIGN_OR_RETURN(Value rhs, ResolveBase(f.base_rhs(), *env));
        return lhs == rhs ? RealFormula::True() : RealFormula::False();
      }
      case Formula::Kind::kCmp: {
        MUDB_RETURN_IF_ERROR(ChargeAtoms(1));
        MUDB_ASSIGN_OR_RETURN(Polynomial lhs, TermToPoly(f.cmp_lhs(), *env));
        MUDB_ASSIGN_OR_RETURN(Polynomial rhs, TermToPoly(f.cmp_rhs(), *env));
        return RealFormula::Cmp(lhs - rhs, f.cmp_op());
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        std::vector<RealFormula> parts;
        parts.reserve(f.children().size());
        for (const Formula& c : f.children()) {
          MUDB_ASSIGN_OR_RETURN(RealFormula g, Ground(c, env));
          parts.push_back(std::move(g));
        }
        return f.kind() == Formula::Kind::kAnd
                   ? RealFormula::And(std::move(parts))
                   : RealFormula::Or(std::move(parts));
      }
      case Formula::Kind::kNot: {
        MUDB_ASSIGN_OR_RETURN(RealFormula g, Ground(f.children()[0], env));
        return RealFormula::Not(std::move(g));
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall:
        return GroundQuantifier(f, env);
    }
    return util::Status::Internal("unreachable formula kind");
  }

 private:
  util::Status ChargeAtoms(size_t n) {
    atoms_used_ += n;
    if (atoms_used_ > options_.max_atoms) {
      return util::Status::ResourceExhausted(
          "grounding exceeded max_atoms = " +
          std::to_string(options_.max_atoms) +
          "; use the CQ pipeline for large databases");
    }
    return util::Status::OK();
  }

  util::StatusOr<Value> ResolveBase(const BaseArg& arg, const Env& env) {
    if (!arg.is_var()) return Value::BaseConst(arg.text());
    auto it = env.base.find(arg.text());
    if (it == env.base.end()) {
      return util::Status::InvalidArgument("unbound base variable " +
                                           arg.text());
    }
    return it->second;
  }

  util::StatusOr<Polynomial> TermToPoly(const Term& t, const Env& env) {
    switch (t.kind()) {
      case Term::Kind::kVar: {
        auto it = env.num.find(t.var_name());
        if (it == env.num.end()) {
          return util::Status::InvalidArgument("unbound numeric variable " +
                                               t.var_name());
        }
        return it->second;
      }
      case Term::Kind::kConst:
        return Polynomial::Constant(t.const_value());
      case Term::Kind::kAdd: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0], env));
        MUDB_ASSIGN_OR_RETURN(Polynomial b, TermToPoly(t.children()[1], env));
        return a + b;
      }
      case Term::Kind::kMul: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0], env));
        MUDB_ASSIGN_OR_RETURN(Polynomial b, TermToPoly(t.children()[1], env));
        return a * b;
      }
      case Term::Kind::kNeg: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0], env));
        return -a;
      }
    }
    return util::Status::Internal("unreachable term kind");
  }

  util::StatusOr<RealFormula> GroundRelAtom(const Formula& f, Env* env) {
    MUDB_ASSIGN_OR_RETURN(const Relation* rel, db_.GetRelation(f.relation()));
    // Pre-resolve arguments once.
    std::vector<Value> base_args(f.args().size());
    std::vector<Polynomial> num_args(f.args().size());
    for (size_t i = 0; i < f.args().size(); ++i) {
      const AtomArg& a = f.args()[i];
      if (a.sort() == Sort::kBase) {
        MUDB_ASSIGN_OR_RETURN(base_args[i], ResolveBase(a.base(), *env));
      } else {
        MUDB_ASSIGN_OR_RETURN(num_args[i], TermToPoly(a.term(), *env));
      }
    }
    std::vector<RealFormula> disjuncts;
    for (const Tuple& t : rel->tuples()) {
      bool base_match = true;
      std::vector<RealFormula> conj;
      for (size_t i = 0; i < t.size() && base_match; ++i) {
        if (t[i].sort() == Sort::kBase) {
          if (t[i] != base_args[i]) base_match = false;
        } else {
          MUDB_RETURN_IF_ERROR(ChargeAtoms(1));
          Polynomial diff = num_args[i] - NumValueToPoly(t[i]);
          conj.push_back(RealFormula::Cmp(std::move(diff), CmpOp::kEq));
        }
      }
      if (!base_match) continue;
      disjuncts.push_back(RealFormula::And(std::move(conj)));
    }
    return RealFormula::Or(std::move(disjuncts));
  }

  util::StatusOr<RealFormula> GroundQuantifier(const Formula& f, Env* env) {
    const logic::TypedVar& var = f.quantified_var();
    const bool is_exists = f.kind() == Formula::Kind::kExists;
    std::vector<RealFormula> parts;
    if (var.sort == Sort::kBase) {
      // Save/restore any shadowed binding.
      std::optional<Value> saved;
      if (auto it = env->base.find(var.name); it != env->base.end()) {
        saved = it->second;
      }
      for (const Value& c : base_domain_) {
        env->base[var.name] = c;
        MUDB_ASSIGN_OR_RETURN(RealFormula g, Ground(f.children()[0], env));
        parts.push_back(std::move(g));
        if (is_exists && parts.back().kind() == RealFormula::Kind::kTrue) break;
        if (!is_exists && parts.back().kind() == RealFormula::Kind::kFalse)
          break;
      }
      if (saved) {
        env->base[var.name] = *saved;
      } else {
        env->base.erase(var.name);
      }
    } else {
      std::optional<Polynomial> saved;
      if (auto it = env->num.find(var.name); it != env->num.end()) {
        saved = it->second;
      }
      for (const Polynomial& p : num_domain_) {
        env->num[var.name] = p;
        MUDB_ASSIGN_OR_RETURN(RealFormula g, Ground(f.children()[0], env));
        parts.push_back(std::move(g));
        if (is_exists && parts.back().kind() == RealFormula::Kind::kTrue) break;
        if (!is_exists && parts.back().kind() == RealFormula::Kind::kFalse)
          break;
      }
      if (saved) {
        env->num[var.name] = *saved;
      } else {
        env->num.erase(var.name);
      }
    }
    return is_exists ? RealFormula::Or(std::move(parts))
                     : RealFormula::And(std::move(parts));
  }

  const Database& db_;
  GroundOptions options_;
  size_t atoms_used_ = 0;
  std::unordered_map<NullId, int> z_index_;
  std::vector<NullId> null_order_;
  std::vector<Value> base_domain_;  // constants and base nulls
  std::vector<Polynomial> num_domain_;
  std::set<Value> seen_base_;
  std::set<double> seen_num_;
  std::set<NullId> seen_num_null_;
};

}  // namespace

util::StatusOr<GroundResult> GroundQuery(const logic::Query& q,
                                         const model::Database& db,
                                         const model::Tuple& candidate,
                                         const GroundOptions& options) {
  MUDB_RETURN_IF_ERROR(q.formula.Typecheck(db));
  if (candidate.size() != q.output.size()) {
    return util::Status::InvalidArgument(
        "candidate arity " + std::to_string(candidate.size()) +
        " does not match query output arity " +
        std::to_string(q.output.size()));
  }
  for (size_t i = 0; i < candidate.size(); ++i) {
    if (candidate[i].sort() != q.output[i].sort) {
      return util::Status::InvalidArgument(
          "candidate position " + std::to_string(i) + " has sort " +
          model::SortToString(candidate[i].sort()) + ", output variable " +
          q.output[i].name + " has sort " +
          model::SortToString(q.output[i].sort));
    }
  }

  Grounder grounder(db, options);
  for (const model::Value& v : candidate) {
    if (v.kind() == model::Value::Kind::kNumNull) {
      grounder.EnsureNumNull(v.null_id());
    }
  }

  // Bind output variables to the candidate tuple. A base null binds as
  // itself (step 1), even one outside the database, as the permissive
  // semantics of [28] allows.
  Env env;
  for (size_t i = 0; i < candidate.size(); ++i) {
    if (q.output[i].sort == model::Sort::kBase) {
      env.base[q.output[i].name] = candidate[i];
    } else {
      env.num[q.output[i].name] = grounder.NumValueToPoly(candidate[i]);
    }
  }

  MUDB_ASSIGN_OR_RETURN(constraints::RealFormula formula,
                        grounder.Ground(q.formula, &env));
  return GroundResult{std::move(formula), grounder.null_order()};
}

}  // namespace mudb::translate
