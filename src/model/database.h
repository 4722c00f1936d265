// Incomplete databases: relations over values-with-nulls, plus null
// bookkeeping (N_base(D), N_num(D)) and valuations (Section 2/4).

#ifndef MUDB_SRC_MODEL_DATABASE_H_
#define MUDB_SRC_MODEL_DATABASE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/model/schema.h"
#include "src/model/value.h"
#include "src/util/status.h"

namespace mudb::model {

/// A tuple of values (may contain nulls of either sort).
using Tuple = std::vector<Value>;

/// One relation instance: a schema and a bag of tuples. (The paper's
/// relations are sets; InsertDistinct gives set semantics when needed.)
class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }

  /// Appends a tuple after validating sorts against the schema.
  util::Status Insert(Tuple tuple);
  /// Appends a tuple unless an identical tuple is already present.
  util::Status InsertDistinct(Tuple tuple);

 private:
  RelationSchema schema_;
  std::vector<Tuple> tuples_;
};

/// An incomplete database: named relations plus factories for fresh nulls.
///
/// Null ids handed out by MakeBaseNull()/MakeNumNull() are unique within the
/// database; the translation to real-closed-field formulae (Prop. 5.3)
/// assigns variable z_i to numeric null ⊤_i in first-appearance order.
class Database {
 public:
  Database() = default;

  /// Creates an empty relation. Fails if the name is already taken.
  util::Status CreateRelation(RelationSchema schema);

  /// Looks up a relation; NotFound if absent.
  util::StatusOr<const Relation*> GetRelation(const std::string& name) const;
  util::StatusOr<Relation*> GetMutableRelation(const std::string& name);

  /// Inserts into an existing relation.
  util::Status Insert(const std::string& relation, Tuple tuple);

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  /// Fresh marked nulls.
  Value MakeBaseNull() { return Value::BaseNull(next_base_null_++); }
  Value MakeNumNull() { return Value::NumNull(next_num_null_++); }

  /// Numeric null ids appearing anywhere in the database, in first-appearance
  /// order (scan order: relation name, tuple index, column index). The
  /// position of an id in this vector is its variable index z_i.
  std::vector<NullId> CollectNumNullIds() const;
  /// Base null ids appearing anywhere in the database, in scan order.
  std::vector<NullId> CollectBaseNullIds() const;

  /// Total number of tuples across relations.
  size_t TotalTuples() const;

  std::string ToString() const;

 private:
  std::map<std::string, Relation> relations_;
  NullId next_base_null_ = 0;
  NullId next_num_null_ = 0;
};

/// A valuation v = (v_base, v_num): base nulls -> base constants, numeric
/// nulls -> reals. Applying it to a tuple/database replaces nulls (Section 4).
class Valuation {
 public:
  void SetBase(NullId id, std::string constant) {
    base_[id] = std::move(constant);
  }
  void SetNum(NullId id, double value) { num_[id] = value; }

  /// Replaces nulls in `v`; nulls without an assignment are left in place.
  Value Apply(const Value& v) const;
  Tuple Apply(const Tuple& t) const;
  /// Applies to every tuple of every relation; the result may still be
  /// incomplete if the valuation is partial.
  Database Apply(const Database& db) const;

  const std::unordered_map<NullId, std::string>& base_map() const {
    return base_;
  }
  const std::unordered_map<NullId, double>& num_map() const { return num_; }

 private:
  std::unordered_map<NullId, std::string> base_;
  std::unordered_map<NullId, double> num_;
};

/// A bijective base valuation w.r.t. a database (Prop. 5.2): maps each base
/// null ⊥_i to the constant "<prefix><i>", distinct from each other and from
/// every base constant in D (the prefix grows until none starts with it).
/// The names avoid D's constants only, not those of a query: a query
/// constant spelled "<prefix><i>" would match ⊥_i, so pick a prefix no query
/// constant starts with. Under such a valuation μ is unchanged. The engines
/// do not apply it (they compare base nulls as values, in place); tests use
/// it as the reference semantics. `extra_base_ids` adds mappings for base
/// nulls outside the database (e.g. in a candidate tuple, which the
/// permissive semantics of [28] allows).
Valuation MakeBijectiveBaseValuation(
    const Database& db, const std::string& prefix = "@null_",
    const std::vector<NullId>& extra_base_ids = {});

}  // namespace mudb::model

#endif  // MUDB_SRC_MODEL_DATABASE_H_
