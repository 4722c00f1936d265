// CSV import/export for incomplete relations.
//
// Loading follows the paper's experimental setup (§9): SQL NULLs in the
// source data become fresh *marked* nulls (⊥_i for base columns, ⊤_i for
// numeric ones), so a CSV with the token "NULL" round-trips into the marked
// null model. Supports quoted fields — embedded delimiters, doubled-quote
// escapes, and embedded newlines (a quoted field may span input lines). A
// quoted cell is always a constant: the null token and "NULL:<tag>" marks
// are recognised only unquoted. A numeric cell must be a decimal (optional
// sign, digits with at most one '.', optional exponent) whose value is a
// finite double; one that overflows, or underflows to zero, is refused.
// WriteCsvRelation emits exactly that dialect, quoting every base constant
// that would otherwise read back as a null or an empty line, so write →
// load is an identity on relations (io_test.cc round-trip battery).

#ifndef MUDB_SRC_IO_CSV_H_
#define MUDB_SRC_IO_CSV_H_

#include <ostream>
#include <string>

#include "src/model/database.h"
#include "src/util/status.h"

namespace mudb::io {

struct CsvOptions {
  char delimiter = ',';
  /// Cell content interpreted as a fresh marked null.
  std::string null_token = "NULL";
  /// Whether the first line is a header naming the columns; when true it is
  /// validated against the schema's column names.
  bool has_header = true;
};

/// Parses `csv` into a new relation with the given schema inside `db` (the
/// relation must not exist yet). Returns the number of rows loaded.
util::StatusOr<size_t> LoadCsvRelation(model::Database* db,
                                       const model::RelationSchema& schema,
                                       const std::string& csv,
                                       const CsvOptions& options = {});

/// Reads a CSV file from disk (thin wrapper around LoadCsvRelation).
util::StatusOr<size_t> LoadCsvRelationFromFile(
    model::Database* db, const model::RelationSchema& schema,
    const std::string& path, const CsvOptions& options = {});

/// Writes a relation as CSV. Nulls are serialized as "<null_token>:<id>" so
/// that marked-null identity survives a round trip (a bare null_token would
/// lose the marks); numeric constants print with full precision. Fails with
/// InvalidArgument on a NaN or infinite numeric constant, which the loader
/// would refuse.
util::Status WriteCsvRelation(const model::Relation& relation,
                              std::ostream& out,
                              const CsvOptions& options = {});

}  // namespace mudb::io

#endif  // MUDB_SRC_IO_CSV_H_
