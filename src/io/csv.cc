#include "src/io/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

namespace mudb::io {

namespace {

using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Tuple;
using model::Value;

// One field of a record. A field with any double-quoted part is a
// constant whatever its text: the null token and tags apply only unquoted.
struct Field {
  std::string text;
  bool quoted = false;
};

// Splits one CSV record into fields, honouring double-quoted fields with
// doubled-quote escapes.
util::StatusOr<std::vector<Field>> SplitRecord(const std::string& line,
                                               char delimiter) {
  std::vector<Field> fields;
  Field current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.text += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.text += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      current.quoted = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current = Field{};
    } else if (c != '\r') {
      current.text += c;
    }
  }
  if (in_quotes) {
    return util::Status::InvalidArgument("unterminated quoted field: " + line);
  }
  fields.push_back(std::move(current));
  return fields;
}

// Parses a numeric cell: an optional sign, digits with at most one '.', and
// an optional exponent, nothing else, whose value is a finite double.
// from_chars skips no blanks, reads no hex prefix and ignores the locale;
// the "nan" and "inf" it takes fail the finiteness check, and a value that
// overflows or underflows to zero fails as out of range.
bool ParseFiniteDecimal(const std::string& cell, double* out) {
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  // from_chars takes a leading '-' but no '+'.
  if (cell.size() > 1 && cell[0] == '+' && cell[1] != '+' && cell[1] != '-') {
    ++begin;
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// One physical CSV record (possibly spanning several input lines) and the
// input line it starts on, for error messages.
struct RawRecord {
  std::string text;
  size_t line_no = 0;
};

// Splits the buffer into records at newlines *outside* quoted fields — a
// quoted field may contain embedded newlines (RFC 4180), so splitting with
// getline would tear such a record apart. Doubled quotes toggle the state
// twice, so a plain toggle tracks quotedness correctly at every newline.
std::vector<RawRecord> SplitIntoRecords(const std::string& csv) {
  std::vector<RawRecord> records;
  std::string current;
  size_t line = 1;
  size_t start_line = 1;
  bool in_quotes = false;
  for (char c : csv) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n') {
      ++line;
      if (!in_quotes) {
        records.push_back({std::move(current), start_line});
        current.clear();
        start_line = line;
        continue;
      }
    }
    current += c;
  }
  // A final record without a trailing newline (an unterminated quote also
  // lands here; SplitRecord reports it).
  if (!current.empty()) records.push_back({std::move(current), start_line});
  return records;
}

// Shared-null bookkeeping for tagged null tokens ("NULL:7") so identical
// marks in one load become the same marked null.
class NullRegistry {
 public:
  explicit NullRegistry(Database* db) : db_(db) {}

  util::StatusOr<Value> Resolve(const std::string& tag, Sort sort) {
    auto it = named_.find(tag);
    if (it != named_.end()) {
      if (it->second.sort() != sort) {
        return util::Status::InvalidArgument(
            "null tag " + tag + " used in columns of both sorts");
      }
      return it->second;
    }
    Value v = sort == Sort::kBase ? db_->MakeBaseNull() : db_->MakeNumNull();
    named_.emplace(tag, v);
    return v;
  }

  Value Fresh(Sort sort) {
    return sort == Sort::kBase ? db_->MakeBaseNull() : db_->MakeNumNull();
  }

 private:
  Database* db_;
  std::map<std::string, Value> named_;
};

}  // namespace

util::StatusOr<size_t> LoadCsvRelation(Database* db,
                                       const RelationSchema& schema,
                                       const std::string& csv,
                                       const CsvOptions& options) {
  MUDB_RETURN_IF_ERROR(db->CreateRelation(schema));
  MUDB_ASSIGN_OR_RETURN(model::Relation * rel,
                        db->GetMutableRelation(schema.name()));
  NullRegistry nulls(db);

  size_t rows = 0;
  bool header_pending = options.has_header;
  const std::string tagged_prefix = options.null_token + ":";
  for (RawRecord& record : SplitIntoRecords(csv)) {
    const size_t line_no = record.line_no;
    if (record.text.empty() || record.text == "\r") continue;
    MUDB_ASSIGN_OR_RETURN(std::vector<Field> fields,
                          SplitRecord(record.text, options.delimiter));
    if (header_pending) {
      header_pending = false;
      if (fields.size() != schema.arity()) {
        return util::Status::InvalidArgument(
            "header has " + std::to_string(fields.size()) +
            " columns, schema expects " + std::to_string(schema.arity()));
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].text != schema.column(i).name) {
          return util::Status::InvalidArgument(
              "header column " + std::to_string(i) + " is '" +
              fields[i].text + "', schema expects '" +
              schema.column(i).name + "'");
        }
      }
      continue;
    }
    if (fields.size() != schema.arity()) {
      return util::Status::InvalidArgument(
          "line " + std::to_string(line_no) + " has " +
          std::to_string(fields.size()) + " fields, schema expects " +
          std::to_string(schema.arity()));
    }
    Tuple tuple;
    tuple.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const std::string& cell = fields[i].text;
      const bool quoted = fields[i].quoted;
      Sort sort = schema.column(i).sort;
      double number = 0.0;
      if (!quoted && cell == options.null_token) {
        tuple.push_back(nulls.Fresh(sort));
      } else if (!quoted && cell.rfind(tagged_prefix, 0) == 0) {
        MUDB_ASSIGN_OR_RETURN(Value v, nulls.Resolve(cell, sort));
        tuple.push_back(v);
      } else if (sort == Sort::kBase) {
        tuple.push_back(Value::BaseConst(cell));
      } else if (ParseFiniteDecimal(cell, &number)) {
        tuple.push_back(Value::NumConst(number));
      } else {
        return util::Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": '" + cell +
            "' is not numeric (column " + schema.column(i).name + ")");
      }
    }
    MUDB_RETURN_IF_ERROR(rel->Insert(std::move(tuple)));
    ++rows;
  }
  return rows;
}

util::StatusOr<size_t> LoadCsvRelationFromFile(Database* db,
                                               const RelationSchema& schema,
                                               const std::string& path,
                                               const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return util::Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return LoadCsvRelation(db, schema, buffer.str(), options);
}

util::Status WriteCsvRelation(const model::Relation& relation,
                              std::ostream& out, const CsvOptions& options) {
  const RelationSchema& schema = relation.schema();
  // The loader refuses non-finite numbers. Check them all before writing,
  // so a failed write leaves `out` untouched.
  for (const Tuple& t : relation.tuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind() == Value::Kind::kNumConst &&
          !std::isfinite(t[i].num_const())) {
        return util::Status::InvalidArgument(
            "numeric constant " + std::to_string(t[i].num_const()) +
            " is not finite (column " + schema.column(i).name + ")");
      }
    }
  }
  const std::string tagged_prefix = options.null_token + ":";
  auto write_cell = [&](const std::string& text) {
    // '\r' is quoted too: the reader strips unquoted carriage returns. So
    // is every text the reader would take for a null, and the empty text,
    // which as a one-column row would be an empty line the reader skips.
    bool needs_quotes = text.find(options.delimiter) != std::string::npos ||
                        text.find('"') != std::string::npos ||
                        text.find('\n') != std::string::npos ||
                        text.find('\r') != std::string::npos ||
                        text.empty() || text == options.null_token ||
                        text.rfind(tagged_prefix, 0) == 0;
    if (!needs_quotes) {
      out << text;
      return;
    }
    out << '"';
    for (char c : text) {
      if (c == '"') out << '"';
      out << c;
    }
    out << '"';
  };
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (i > 0) out << options.delimiter;
    write_cell(schema.column(i).name);
  }
  out << "\n";
  for (const Tuple& t : relation.tuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << options.delimiter;
      const Value& v = t[i];
      switch (v.kind()) {
        case Value::Kind::kBaseConst:
          write_cell(v.base_const());
          break;
        case Value::Kind::kNumConst: {
          std::ostringstream num;
          num.precision(17);
          num << v.num_const();
          out << num.str();
          break;
        }
        case Value::Kind::kBaseNull:
          // Sort-qualified tags keep ⊥_i and ⊤_i distinct on reload.
          out << options.null_token << ":b" << v.null_id();
          break;
        case Value::Kind::kNumNull:
          out << options.null_token << ":n" << v.null_id();
          break;
      }
    }
    out << "\n";
  }
  if (!out) {
    return util::Status::Internal("stream write failed");
  }
  return util::Status::OK();
}

}  // namespace mudb::io
