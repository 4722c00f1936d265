#include "src/sql/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace mudb::sql {

namespace {

using engine::ConjunctiveQuery;
using engine::CqAtom;
using engine::CqBaseEquality;
using engine::CqComparison;
using logic::AtomArg;
using logic::BaseArg;
using logic::CmpOp;
using logic::Term;
using model::Sort;

// ---- Lexer ----------------------------------------------------------------

enum class TokKind {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // one of = <> != < <= > >= + - * / ( ) , .
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;   // identifier (lowercased for keywords check), symbol
  std::string raw;    // original spelling
  double number = 0;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  util::StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= in_.size()) {
        out.push_back({TokKind::kEnd, "", "", 0, pos_});
        return out;
      }
      char c = in_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
                in_[pos_] == '_')) {
          ++pos_;
        }
        std::string raw = in_.substr(start, pos_ - start);
        std::string lower = raw;
        for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
        out.push_back({TokKind::kIdent, lower, raw, 0, start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < in_.size() &&
           std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
        size_t start = pos_;
        while (pos_ < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
                in_[pos_] == '.')) {
          ++pos_;
        }
        // Scientific notation: [eE][+-]?digits. Only a well-formed exponent
        // is consumed, so "1 e" keeps lexing as number + identifier.
        if (pos_ < in_.size() && (in_[pos_] == 'e' || in_[pos_] == 'E')) {
          size_t exp = pos_ + 1;
          if (exp < in_.size() && (in_[exp] == '+' || in_[exp] == '-')) ++exp;
          if (exp < in_.size() &&
              std::isdigit(static_cast<unsigned char>(in_[exp]))) {
            pos_ = exp;
            while (pos_ < in_.size() &&
                   std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
              ++pos_;
            }
          }
        }
        std::string raw = in_.substr(start, pos_ - start);
        try {
          size_t consumed = 0;
          double v = std::stod(raw, &consumed);
          // Trailing garbage ("1.2.3" parses as 1.2) must not silently
          // truncate; overflow lands in the catch below.
          if (consumed != raw.size()) {
            return util::Status::InvalidArgument("bad number literal: " + raw);
          }
          out.push_back({TokKind::kNumber, raw, raw, v, start});
        } catch (...) {
          return util::Status::InvalidArgument("bad number literal: " + raw);
        }
        continue;
      }
      if (c == '\'') {
        size_t start = ++pos_;
        while (pos_ < in_.size() && in_[pos_] != '\'') ++pos_;
        if (pos_ >= in_.size()) {
          return util::Status::InvalidArgument("unterminated string literal");
        }
        std::string raw = in_.substr(start, pos_ - start);
        ++pos_;
        out.push_back({TokKind::kString, raw, raw, 0, start});
        continue;
      }
      // Symbols, including two-character comparison operators.
      static const char* kTwo[] = {"<>", "!=", "<=", ">="};
      bool matched = false;
      for (const char* s : kTwo) {
        if (in_.compare(pos_, 2, s) == 0) {
          out.push_back({TokKind::kSymbol, s, s, 0, pos_});
          pos_ += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOne = "=<>+-*/(),.";
      if (kOne.find(c) != std::string::npos) {
        out.push_back({TokKind::kSymbol, std::string(1, c),
                       std::string(1, c), 0, pos_});
        ++pos_;
        continue;
      }
      return util::Status::InvalidArgument(
          std::string("unexpected character '") + c + "' at offset " +
          std::to_string(pos_));
    }
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& in_;
  size_t pos_ = 0;
};

// ---- Parser / binder -------------------------------------------------------

// The deepest expression the parser accepts. Parentheses, unary minus and
// each operator of a + - * / chain add one level, so this bounds both the
// parser's recursion and the depth of the logic::Term it builds, which
// later passes walk recursively. Deeper input fails with InvalidArgument
// instead of overflowing the stack. A parenthesis level is three parser
// frames, about 9 KB of stack in an ASan debug build, so 1000 levels
// overflow an 8 MB stack there; 256 levels take about a quarter of it.
constexpr int kMaxExprDepth = 256;

// An expression is either a numeric term or a base argument; which one is
// determined by the column sorts during parsing.
struct Expr {
  bool is_base = false;
  Term term;        // valid when !is_base
  BaseArg base = BaseArg::Var("");  // valid when is_base
  int depth = 0;    // nesting levels, as counted for kMaxExprDepth
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const model::Database& db)
      : tokens_(std::move(tokens)), db_(db) {}

  util::StatusOr<ConjunctiveQuery> Parse() {
    MUDB_RETURN_IF_ERROR(ExpectKeyword("select"));
    std::vector<std::pair<std::string, std::string>> select_cols;
    do {
      MUDB_ASSIGN_OR_RETURN(auto col, ParseColRefNames());
      select_cols.push_back(col);
    } while (Accept(","));
    MUDB_RETURN_IF_ERROR(ExpectKeyword("from"));
    do {
      MUDB_RETURN_IF_ERROR(ParseTableRef());
    } while (Accept(","));

    if (AcceptKeyword("where")) {
      do {
        MUDB_RETURN_IF_ERROR(ParseConjunct());
      } while (AcceptKeyword("and"));
    }
    if (AcceptKeyword("limit")) {
      MUDB_ASSIGN_OR_RETURN(cq_.limit, ParseLimit());
    }
    if (Peek().kind != TokKind::kEnd) {
      return Error("unexpected trailing input: " + Peek().raw);
    }

    // Materialize the FROM atoms, then resolve the SELECT list.
    for (const auto& [alias, table] : from_order_) {
      MUDB_ASSIGN_OR_RETURN(const model::Relation* rel, db_.GetRelation(table));
      CqAtom atom;
      atom.relation = table;
      for (const model::ColumnDef& col : rel->schema().columns()) {
        std::string var = alias + "." + col.name;
        if (col.sort == Sort::kBase) {
          atom.args.push_back(AtomArg::BaseVar(var));
        } else {
          atom.args.push_back(AtomArg::NumVar(var));
        }
      }
      cq_.atoms.push_back(std::move(atom));
    }
    for (const auto& [alias, col] : select_cols) {
      MUDB_ASSIGN_OR_RETURN(auto resolved, ResolveColumn(alias, col));
      cq_.output.push_back(
          logic::TypedVar{resolved.first, resolved.second});
    }
    MUDB_RETURN_IF_ERROR(cq_.Validate(db_));
    return std::move(cq_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() { ++pos_; }
  bool Accept(const std::string& symbol) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == symbol) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  util::Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return util::Status::InvalidArgument("expected " + kw + " near '" +
                                           Peek().raw + "'");
    }
    return util::Status::OK();
  }

  // A LIMIT count: a plain digit string of at most 2^53, the largest range
  // in which the lexer's double holds every integer exactly. Read from the
  // spelling, so "2.5", "1e3" or "-1" fail instead of reaching a
  // float-to-integer cast (undefined for 1e300).
  util::StatusOr<size_t> ParseLimit() {
    constexpr uint64_t kMaxLimit = uint64_t{1} << 53;
    const Token& tok = Peek();
    bool valid = tok.kind == TokKind::kNumber;
    uint64_t value = 0;
    for (char c : tok.raw) {
      if (!valid || !std::isdigit(static_cast<unsigned char>(c))) {
        valid = false;
        break;
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
      valid = value <= kMaxLimit;
    }
    if (!valid) {
      return Error("LIMIT needs a non-negative integer, got '" + tok.raw +
                   "'");
    }
    Advance();
    return static_cast<size_t>(value);
  }

  util::Status Error(const std::string& msg) const {
    return util::Status::InvalidArgument(
        msg + " (offset " + std::to_string(Peek().pos) + ")");
  }

  // "alias.column" or bare "column"; returns (alias-or-empty, column).
  util::StatusOr<std::pair<std::string, std::string>> ParseColRefNames() {
    if (Peek().kind != TokKind::kIdent) return Error("expected a column name");
    std::string first = Peek().raw;
    Advance();
    if (Accept(".")) {
      if (Peek().kind != TokKind::kIdent) {
        return Error("expected a column after '.'");
      }
      std::string col = Peek().raw;
      Advance();
      return std::make_pair(first, col);
    }
    return std::make_pair(std::string(), first);
  }

  util::Status ParseTableRef() {
    if (Peek().kind != TokKind::kIdent) return Error("expected a table name");
    std::string table = Peek().raw;
    Advance();
    std::string alias = table;
    if (Peek().kind == TokKind::kIdent &&
        Peek().text != "where" && Peek().text != "limit" &&
        Peek().text != "and") {
      alias = Peek().raw;
      Advance();
    }
    if (aliases_.count(alias) > 0) {
      return util::Status::InvalidArgument("duplicate table alias: " + alias);
    }
    MUDB_ASSIGN_OR_RETURN(const model::Relation* rel, db_.GetRelation(table));
    (void)rel;
    aliases_.emplace(alias, table);
    from_order_.emplace_back(alias, table);
    return util::Status::OK();
  }

  // Resolves (alias, column) to the variable name and sort. An empty alias
  // searches all tables and must be unambiguous.
  util::StatusOr<std::pair<std::string, Sort>> ResolveColumn(
      const std::string& alias, const std::string& column) {
    if (!alias.empty()) {
      auto it = aliases_.find(alias);
      if (it == aliases_.end()) {
        return util::Status::InvalidArgument("unknown table alias: " + alias);
      }
      MUDB_ASSIGN_OR_RETURN(const model::Relation* rel,
                            db_.GetRelation(it->second));
      auto idx = rel->schema().ColumnIndex(column);
      if (!idx) {
        return util::Status::InvalidArgument("no column " + column + " in " +
                                             it->second);
      }
      return std::make_pair(alias + "." + column,
                            rel->schema().column(*idx).sort);
    }
    std::optional<std::pair<std::string, Sort>> found;
    for (const auto& [a, table] : aliases_) {
      MUDB_ASSIGN_OR_RETURN(const model::Relation* rel, db_.GetRelation(table));
      auto idx = rel->schema().ColumnIndex(column);
      if (idx) {
        if (found) {
          return util::Status::InvalidArgument("ambiguous column: " + column);
        }
        found = std::make_pair(a + "." + column,
                               rel->schema().column(*idx).sort);
      }
    }
    if (!found) {
      return util::Status::InvalidArgument("unknown column: " + column);
    }
    return *found;
  }

  // Fails once an expression nests deeper than kMaxExprDepth.
  util::Status CheckDepth(int depth) const {
    if (depth <= kMaxExprDepth) return util::Status::OK();
    return Error("expression nests deeper than the limit of " +
                 std::to_string(kMaxExprDepth) + " levels");
  }

  // `depth` counts the parentheses and unary minus signs enclosing the
  // factor, so the recursion stops at kMaxExprDepth.
  util::StatusOr<Expr> ParseFactor(int depth) {
    if (Peek().kind == TokKind::kNumber) {
      Expr e;
      e.term = Term::Const(Peek().number);
      Advance();
      return e;
    }
    if (Peek().kind == TokKind::kString) {
      Expr e;
      e.is_base = true;
      e.base = BaseArg::Const(Peek().raw);
      Advance();
      return e;
    }
    if (Accept("-")) {
      MUDB_RETURN_IF_ERROR(CheckDepth(depth + 1));
      MUDB_ASSIGN_OR_RETURN(Expr inner, ParseFactor(depth + 1));
      if (inner.is_base) return Error("cannot negate a base-typed value");
      inner.term = Term::Neg(std::move(inner.term));
      ++inner.depth;
      MUDB_RETURN_IF_ERROR(CheckDepth(inner.depth));
      return inner;
    }
    if (Accept("(")) {
      MUDB_RETURN_IF_ERROR(CheckDepth(depth + 1));
      MUDB_ASSIGN_OR_RETURN(Expr inner, ParseExpr(depth + 1));
      if (!Accept(")")) return Error("expected ')'");
      ++inner.depth;
      MUDB_RETURN_IF_ERROR(CheckDepth(inner.depth));
      return inner;
    }
    if (Peek().kind == TokKind::kIdent) {
      MUDB_ASSIGN_OR_RETURN(auto names, ParseColRefNames());
      MUDB_ASSIGN_OR_RETURN(auto resolved,
                            ResolveColumn(names.first, names.second));
      Expr e;
      if (resolved.second == Sort::kBase) {
        e.is_base = true;
        e.base = BaseArg::Var(resolved.first);
      } else {
        e.term = Term::Var(resolved.first);
      }
      return e;
    }
    return Error("expected an expression, found '" + Peek().raw + "'");
  }

  util::StatusOr<Expr> ParseTerm(int depth) {
    MUDB_ASSIGN_OR_RETURN(Expr lhs, ParseFactor(depth));
    while (true) {
      bool mul = Peek().kind == TokKind::kSymbol && Peek().text == "*";
      bool div = Peek().kind == TokKind::kSymbol && Peek().text == "/";
      if (!mul && !div) return lhs;
      Advance();
      MUDB_ASSIGN_OR_RETURN(Expr rhs, ParseFactor(depth));
      if (lhs.is_base || rhs.is_base) {
        return Error("arithmetic on base-typed values");
      }
      lhs.depth = std::max(lhs.depth, rhs.depth) + 1;
      MUDB_RETURN_IF_ERROR(CheckDepth(lhs.depth));
      if (mul) {
        lhs.term = Term::Mul(std::move(lhs.term), std::move(rhs.term));
      } else {
        if (rhs.term.kind() != Term::Kind::kConst ||
            rhs.term.const_value() == 0.0) {
          return Error(
              "division is only supported by a nonzero numeric literal; "
              "multiply the comparison out instead");
        }
        lhs.term = Term::Mul(std::move(lhs.term),
                             Term::Const(1.0 / rhs.term.const_value()));
      }
    }
  }

  util::StatusOr<Expr> ParseExpr(int depth) {
    MUDB_ASSIGN_OR_RETURN(Expr lhs, ParseTerm(depth));
    while (true) {
      bool add = Peek().kind == TokKind::kSymbol && Peek().text == "+";
      bool sub = Peek().kind == TokKind::kSymbol && Peek().text == "-";
      if (!add && !sub) return lhs;
      Advance();
      MUDB_ASSIGN_OR_RETURN(Expr rhs, ParseTerm(depth));
      if (lhs.is_base || rhs.is_base) {
        return Error("arithmetic on base-typed values");
      }
      lhs.depth = std::max(lhs.depth, rhs.depth) + 1;
      MUDB_RETURN_IF_ERROR(CheckDepth(lhs.depth));
      lhs.term = add ? Term::Add(std::move(lhs.term), std::move(rhs.term))
                     : Term::Sub(std::move(lhs.term), std::move(rhs.term));
    }
  }

  util::Status ParseConjunct() {
    MUDB_ASSIGN_OR_RETURN(Expr lhs, ParseExpr(0));
    CmpOp op;
    if (Accept("=")) {
      op = CmpOp::kEq;
    } else if (Accept("<>") || Accept("!=")) {
      op = CmpOp::kNeq;
    } else if (Accept("<=")) {
      op = CmpOp::kLe;
    } else if (Accept(">=")) {
      op = CmpOp::kGe;
    } else if (Accept("<")) {
      op = CmpOp::kLt;
    } else if (Accept(">")) {
      op = CmpOp::kGt;
    } else {
      return Error("expected a comparison operator");
    }
    MUDB_ASSIGN_OR_RETURN(Expr rhs, ParseExpr(0));
    if (lhs.is_base != rhs.is_base) {
      return Error("comparison mixes base and numeric operands");
    }
    if (lhs.is_base) {
      if (op != CmpOp::kEq) {
        return Error(
            "only equality is supported between base-typed operands in the "
            "conjunctive fragment");
      }
      cq_.base_equalities.push_back(CqBaseEquality{lhs.base, rhs.base});
      return util::Status::OK();
    }
    cq_.comparisons.push_back(
        CqComparison{std::move(lhs.term), op, std::move(rhs.term)});
    return util::Status::OK();
  }

  std::vector<Token> tokens_;
  const model::Database& db_;
  size_t pos_ = 0;
  std::map<std::string, std::string> aliases_;  // alias -> table
  std::vector<std::pair<std::string, std::string>> from_order_;
  ConjunctiveQuery cq_;
};

}  // namespace

util::StatusOr<engine::ConjunctiveQuery> ParseSqlQuery(
    const std::string& sql, const model::Database& db) {
  Lexer lexer(sql);
  MUDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), db);
  return parser.Parse();
}

util::StatusOr<engine::UnionQuery> ParseSqlUnionQuery(
    const std::string& sql, const model::Database& db) {
  Lexer lexer(sql);
  MUDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  // Split the token stream on top-level UNION keywords (the grammar has no
  // parenthesized subqueries, so every UNION is top-level).
  std::vector<std::vector<Token>> segments(1);
  const Token end_token = tokens.back();  // the kEnd sentinel
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kIdent && t.text == "union") {
      segments.back().push_back(end_token);
      segments.emplace_back();
      continue;
    }
    segments.back().push_back(t);
  }

  engine::UnionQuery out;
  for (size_t i = 0; i < segments.size(); ++i) {
    Parser parser(std::move(segments[i]), db);
    MUDB_ASSIGN_OR_RETURN(engine::ConjunctiveQuery cq, parser.Parse());
    if (cq.limit) {
      if (i + 1 != segments.size()) {
        return util::Status::InvalidArgument(
            "LIMIT is only allowed after the final UNION branch");
      }
      out.limit = cq.limit;
      cq.limit.reset();
    }
    out.branches.push_back(std::move(cq));
  }
  MUDB_RETURN_IF_ERROR(out.Validate(db));
  return out;
}

}  // namespace mudb::sql
