#include "src/engine/eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

namespace mudb::engine {

namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using logic::AtomArg;
using logic::Term;
using model::Database;
using model::NullId;
using model::Relation;
using model::Sort;
using model::Tuple;
using model::Value;
using poly::Polynomial;

constexpr char kKeySep = '\x1f';
/// Starts a base null's index-key spelling. A constant that spells the same
/// key only lands in the same bucket; BindTuple re-checks every probed
/// position by value, so it never joins.
constexpr char kNullTag = '\0';
/// Witnesses enumerated before EvaluateCq gives up with ResourceExhausted.
constexpr size_t kMaxWitnesses = 50'000'000;

/// Appends base value `v` to a probe or index key.
void AppendKey(const Value& v, std::string* key) {
  if (v.kind() == Value::Kind::kBaseConst) {
    *key += v.base_const();
  } else {
    *key += kNullTag;
    *key += std::to_string(v.null_id());
  }
  *key += kKeySep;
}

struct PlannedAtom {
  const CqAtom* atom;
  const Relation* relation;
  /// Base positions whose value is known when this atom is processed
  /// (constants, or variables bound by earlier atoms).
  std::vector<size_t> probe_positions;
  /// Hash index from probe-key to tuple indices (empty if no probe columns).
  std::unordered_multimap<std::string, size_t> index;
  /// Comparisons fully bound once this atom is processed.
  std::vector<const CqComparison*> ready_comparisons;
};

class Evaluator {
 public:
  Evaluator(const Database& db, const ConjunctiveQuery& cq)
      : db_(db), cq_(cq) {
    for (NullId id : db.CollectNumNullIds()) {
      z_index_.emplace(id, static_cast<int>(null_order_.size()));
      null_order_.push_back(id);
    }
  }

  util::StatusOr<EvalResult> Run() {
    MUDB_RETURN_IF_ERROR(cq_.Validate(db_));
    RewriteBaseEqualities();
    EvalResult empty;
    empty.null_order = null_order_;
    if (impossible_) return empty;  // contradictory constant equalities
    MUDB_RETURN_IF_ERROR(Plan());
    MUDB_RETURN_IF_ERROR(Enumerate(0));
    EvalResult result;
    result.null_order = null_order_;
    result.witnesses_enumerated = witnesses_enumerated_;
    for (const Tuple& key : candidate_order_) {
      CandidateState& state = candidates_.at(key);
      Candidate c;
      c.output = key;
      c.witnesses = state.disjuncts.size();
      c.certain = state.certain;
      c.constraint = state.certain
                         ? RealFormula::True()
                         : RealFormula::Or(std::move(state.disjuncts));
      result.candidates.push_back(std::move(c));
    }
    return result;
  }

 private:
  struct CandidateState {
    std::vector<RealFormula> disjuncts;
    bool certain = false;
  };

  // ---- Base-equality absorption -------------------------------------------
  //
  // Conditions like P.seg = M.seg arrive as CqBaseEquality conjuncts (the SQL
  // front-end gives every table its own column variables). Treating them as
  // post-filters would force cross-products, so before planning we unify
  // variables connected by var-var equalities (union-find) and substitute
  // constants for var-const equalities; joins then flow through the hash
  // indexes on shared variables.

  std::string Canon(const std::string& var) {
    auto it = parent_.find(var);
    if (it == parent_.end() || it->second == var) return var;
    std::string root = Canon(it->second);
    parent_[var] = root;
    return root;
  }

  void RewriteBaseEqualities() {
    rewritten_ = cq_;
    // Pass 1: union var-var equalities.
    for (const CqBaseEquality& eq : rewritten_.base_equalities) {
      if (eq.lhs.is_var() && eq.rhs.is_var()) {
        std::string a = Canon(eq.lhs.text());
        std::string b = Canon(eq.rhs.text());
        if (a != b) parent_[a] = b;
      }
    }
    // Pass 2: bind var-const equalities; detect const-const contradictions.
    for (const CqBaseEquality& eq : rewritten_.base_equalities) {
      if (eq.lhs.is_var() && eq.rhs.is_var()) continue;
      if (!eq.lhs.is_var() && !eq.rhs.is_var()) {
        if (eq.lhs.text() != eq.rhs.text()) impossible_ = true;
        continue;
      }
      const logic::BaseArg& var = eq.lhs.is_var() ? eq.lhs : eq.rhs;
      const logic::BaseArg& cst = eq.lhs.is_var() ? eq.rhs : eq.lhs;
      std::string root = Canon(var.text());
      auto [it, inserted] = const_binding_.emplace(root, cst.text());
      if (!inserted && it->second != cst.text()) impossible_ = true;
    }
    rewritten_.base_equalities.clear();
    // Pass 3: rewrite atom arguments to canonical variables / constants.
    for (CqAtom& atom : rewritten_.atoms) {
      for (AtomArg& arg : atom.args) {
        if (arg.sort() != Sort::kBase || !arg.base().is_var()) continue;
        std::string root = Canon(arg.base().text());
        auto it = const_binding_.find(root);
        if (it != const_binding_.end()) {
          arg = AtomArg::BaseConst(it->second);
        } else if (root != arg.base().text()) {
          arg = AtomArg::BaseVar(root);
        }
      }
    }
  }

  // ---- Planning ----------------------------------------------------------

  util::Status Plan() {
    const size_t n = rewritten_.atoms.size();
    if (n == 0) {
      return util::Status::InvalidArgument("query has no relational atoms");
    }
    std::vector<bool> placed(n, false);
    std::set<std::string> bound_vars;

    auto bound_base_positions = [&](const CqAtom& atom) {
      std::vector<size_t> cols;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& a = atom.args[i];
        if (a.sort() != Sort::kBase) continue;
        if (!a.base().is_var() || bound_vars.count(a.base().text()) > 0) {
          cols.push_back(i);
        }
      }
      return cols;
    };

    for (size_t step = 0; step < n; ++step) {
      // Greedy: maximize the number of probe-able base positions, then
      // prefer smaller relations.
      int best = -1;
      size_t best_probe = 0, best_size = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        MUDB_ASSIGN_OR_RETURN(const Relation* rel,
                              db_.GetRelation(rewritten_.atoms[i].relation));
        size_t probe = bound_base_positions(rewritten_.atoms[i]).size();
        size_t size = rel->size();
        if (best < 0 || probe > best_probe ||
            (probe == best_probe && size < best_size)) {
          best = static_cast<int>(i);
          best_probe = probe;
          best_size = size;
        }
      }
      const CqAtom& atom = rewritten_.atoms[best];
      MUDB_ASSIGN_OR_RETURN(const Relation* rel,
                            db_.GetRelation(atom.relation));
      PlannedAtom planned;
      planned.atom = &atom;
      planned.relation = rel;
      planned.probe_positions = bound_base_positions(atom);
      placed[best] = true;
      // Newly bound variables (base and numeric).
      for (const AtomArg& a : atom.args) {
        if (a.sort() == Sort::kBase) {
          if (a.base().is_var()) bound_vars.insert(a.base().text());
        } else if (a.term().kind() == Term::Kind::kVar) {
          bound_vars.insert(a.term().var_name());
        }
      }
      plan_.push_back(std::move(planned));

      // Schedule comparisons at the earliest step where all their
      // variables are bound.
      auto all_bound = [&](const std::set<std::string>& vars) {
        for (const std::string& v : vars) {
          if (bound_vars.count(v) == 0) return false;
        }
        return true;
      };
      for (const CqComparison& cmp : rewritten_.comparisons) {
        if (scheduled_cmp_.count(&cmp)) continue;
        std::set<std::string> vars;
        cmp.lhs.CollectVariables(&vars);
        cmp.rhs.CollectVariables(&vars);
        if (all_bound(vars)) {
          plan_.back().ready_comparisons.push_back(&cmp);
          scheduled_cmp_.insert(&cmp);
        }
      }
    }
    if (scheduled_cmp_.size() != rewritten_.comparisons.size()) {
      return util::Status::Internal("unschedulable comparison (unbound vars)");
    }

    // Build hash indexes over the probe positions.
    for (PlannedAtom& p : plan_) {
      if (p.probe_positions.empty()) continue;
      const auto& tuples = p.relation->tuples();
      p.index.reserve(tuples.size());
      for (size_t t = 0; t < tuples.size(); ++t) {
        p.index.emplace(TupleKey(tuples[t], p.probe_positions), t);
      }
    }
    return util::Status::OK();
  }

  static std::string TupleKey(const Tuple& t,
                              const std::vector<size_t>& positions) {
    std::string key;
    for (size_t i : positions) AppendKey(t[i], &key);
    return key;
  }

  // ---- Enumeration -------------------------------------------------------

  Polynomial ValueToPoly(const Value& v) const {
    if (v.kind() == Value::Kind::kNumConst) {
      return Polynomial::Constant(v.num_const());
    }
    MUDB_CHECK(v.kind() == Value::Kind::kNumNull);
    return Polynomial::Variable(z_index_.at(v.null_id()));
  }

  util::StatusOr<Polynomial> TermToPoly(const Term& t) const {
    switch (t.kind()) {
      case Term::Kind::kVar: {
        auto it = env_.find(t.var_name());
        MUDB_CHECK(it != env_.end());
        return ValueToPoly(it->second);
      }
      case Term::Kind::kConst:
        return Polynomial::Constant(t.const_value());
      case Term::Kind::kAdd: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0]));
        MUDB_ASSIGN_OR_RETURN(Polynomial b, TermToPoly(t.children()[1]));
        return a + b;
      }
      case Term::Kind::kMul: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0]));
        MUDB_ASSIGN_OR_RETURN(Polynomial b, TermToPoly(t.children()[1]));
        return a * b;
      }
      case Term::Kind::kNeg: {
        MUDB_ASSIGN_OR_RETURN(Polynomial a, TermToPoly(t.children()[0]));
        return -a;
      }
    }
    return util::Status::Internal("unreachable term kind");
  }

  // Adds `poly op 0` to the current branch; returns false if the branch
  // dies. Folds constants, prunes measure-zero equalities.
  bool AddConstraint(Polynomial poly, CmpOp op) {
    if (poly.IsConstant()) {
      double c = poly.ConstantTerm();
      int sign = c > 0 ? 1 : (c < 0 ? -1 : 0);
      return constraints::CmpTruthFromSign(op, sign);
    }
    if (op == CmpOp::kEq) return false;  // equality on nulls: measure zero
    branch_atoms_.push_back(RealFormula::Cmp(std::move(poly), op));
    return true;
  }

  util::Status Enumerate(size_t depth) {
    if (depth == plan_.size()) {
      return FinishWitness();
    }
    PlannedAtom& p = plan_[depth];
    const auto& tuples = p.relation->tuples();

    auto try_tuple = [&](size_t row) -> util::Status {
      const Tuple& t = tuples[row];
      size_t trail = trail_.size();
      size_t atom_trail = branch_atoms_.size();
      bool ok = BindTuple(*p.atom, t);
      if (ok) {
        for (const CqComparison* cmp : p.ready_comparisons) {
          util::StatusOr<Polynomial> lhs = TermToPoly(cmp->lhs);
          if (!lhs.ok()) return lhs.status();
          util::StatusOr<Polynomial> rhs = TermToPoly(cmp->rhs);
          if (!rhs.ok()) return rhs.status();
          if (!AddConstraint(*lhs - *rhs, cmp->op)) {
            ok = false;
            break;
          }
        }
      }
      util::Status status = util::Status::OK();
      if (ok) status = Enumerate(depth + 1);
      // Undo bindings and constraints.
      while (trail_.size() > trail) {
        env_.erase(trail_.back());
        trail_.pop_back();
      }
      branch_atoms_.resize(atom_trail);
      return status;
    };

    if (!p.probe_positions.empty()) {
      std::string key = ProbeKey(p);
      auto [lo, hi] = p.index.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        MUDB_RETURN_IF_ERROR(try_tuple(it->second));
      }
    } else {
      for (size_t row = 0; row < tuples.size(); ++row) {
        MUDB_RETURN_IF_ERROR(try_tuple(row));
      }
    }
    return util::Status::OK();
  }

  std::string ProbeKey(const PlannedAtom& p) const {
    std::string key;
    for (size_t i : p.probe_positions) {
      const AtomArg& a = p.atom->args[i];
      if (a.base().is_var()) {
        AppendKey(env_.at(a.base().text()), &key);
      } else {
        key += a.base().text();
        key += kKeySep;
      }
    }
    return key;
  }

  // Binds one tuple to an atom; returns false if the branch dies. Leaves the
  // trail holding whatever was pushed (caller rolls back). Every position
  // compares as a model::Value, against the constant argument or the
  // variable's binding. For a numeric null, equality with anything but
  // itself is a measure-zero witness (z = c, z = z'), so it is pruned too.
  bool BindTuple(const CqAtom& atom, const Tuple& t) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const AtomArg& a = atom.args[i];
      const Value& v = t[i];
      if (a.sort() == Sort::kBase && !a.base().is_var()) {
        if (v.kind() != Value::Kind::kBaseConst ||
            v.base_const() != a.base().text()) {
          return false;
        }
      } else if (a.sort() == Sort::kNum &&
                 a.term().kind() == Term::Kind::kConst) {
        if (v != Value::NumConst(a.term().const_value())) return false;
      } else {
        const std::string& name =
            a.sort() == Sort::kBase ? a.base().text() : a.term().var_name();
        auto [it, inserted] = env_.try_emplace(name, v);
        if (inserted) {
          trail_.push_back(name);
        } else if (it->second != v) {
          return false;
        }
      }
    }
    return true;
  }

  util::Status FinishWitness() {
    ++witnesses_enumerated_;
    if (witnesses_enumerated_ > kMaxWitnesses) {
      return util::Status::ResourceExhausted(
          "witness enumeration exceeded " + std::to_string(kMaxWitnesses) +
          " witnesses");
    }
    // Build the output tuple.
    Tuple out;
    out.reserve(cq_.output.size());
    for (const logic::TypedVar& v : cq_.output) {
      if (v.sort == Sort::kBase) {
        std::string root = Canon(v.name);
        auto cit = const_binding_.find(root);
        out.push_back(cit != const_binding_.end()
                          ? Value::BaseConst(cit->second)
                          : env_.at(root));
      } else {
        out.push_back(env_.at(v.name));
      }
    }
    auto it = candidates_.find(out);
    if (it == candidates_.end()) {
      if (cq_.limit && candidate_order_.size() >= *cq_.limit) {
        return util::Status::OK();  // LIMIT reached; ignore new tuples
      }
      it = candidates_.emplace(out, CandidateState{}).first;
      candidate_order_.push_back(out);
    }
    CandidateState& state = it->second;
    if (state.certain) return util::Status::OK();
    if (branch_atoms_.empty()) {
      state.certain = true;
      state.disjuncts.clear();
      return util::Status::OK();
    }
    state.disjuncts.push_back(RealFormula::And(branch_atoms_));
    return util::Status::OK();
  }

  const Database& db_;
  const ConjunctiveQuery& cq_;
  ConjunctiveQuery rewritten_;
  bool impossible_ = false;
  std::unordered_map<std::string, std::string> parent_;       // union-find
  std::unordered_map<std::string, std::string> const_binding_;  // root -> const
  std::unordered_map<NullId, int> z_index_;
  std::vector<NullId> null_order_;

  std::vector<PlannedAtom> plan_;
  std::set<const CqComparison*> scheduled_cmp_;

  /// Every bound variable, base or numeric, and the order it was bound in.
  std::unordered_map<std::string, Value> env_;
  std::vector<std::string> trail_;
  std::vector<RealFormula> branch_atoms_;

  std::map<Tuple, CandidateState> candidates_;
  std::vector<Tuple> candidate_order_;
  size_t witnesses_enumerated_ = 0;
};

}  // namespace

util::StatusOr<EvalResult> EvaluateCq(const model::Database& db,
                                      const ConjunctiveQuery& cq) {
  Evaluator evaluator(db, cq);
  return evaluator.Run();
}

util::StatusOr<EvalResult> EvaluateUnion(const model::Database& db,
                                         const UnionQuery& query) {
  MUDB_RETURN_IF_ERROR(query.Validate(db));
  EvalResult merged;
  std::map<Tuple, size_t> index;  // output tuple -> position in candidates
  for (const ConjunctiveQuery& branch : query.branches) {
    ConjunctiveQuery unlimited = branch;
    unlimited.limit.reset();  // the union's limit applies after merging
    MUDB_ASSIGN_OR_RETURN(EvalResult r, EvaluateCq(db, unlimited));
    if (merged.null_order.empty()) merged.null_order = r.null_order;
    merged.witnesses_enumerated += r.witnesses_enumerated;
    for (Candidate& c : r.candidates) {
      auto [it, inserted] = index.emplace(c.output, merged.candidates.size());
      if (inserted) {
        merged.candidates.push_back(std::move(c));
        continue;
      }
      Candidate& existing = merged.candidates[it->second];
      existing.witnesses += c.witnesses;
      if (existing.certain) continue;
      if (c.certain) {
        existing.certain = true;
        existing.constraint = constraints::RealFormula::True();
      } else {
        std::vector<constraints::RealFormula> both;
        both.push_back(std::move(existing.constraint));
        both.push_back(std::move(c.constraint));
        existing.constraint = constraints::RealFormula::Or(std::move(both));
      }
    }
  }
  if (query.limit && merged.candidates.size() > *query.limit) {
    merged.candidates.resize(*query.limit);
  }
  return merged;
}

}  // namespace mudb::engine
