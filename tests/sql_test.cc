// Tests for the SQL front-end.

#include <string>

#include <gtest/gtest.h>

#include "src/datagen/datagen.h"
#include "src/engine/eval.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"

namespace mudb::sql {
namespace {

using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Value;

Database SalesSchemaDb() {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema(
                   "Products", {{"id", Sort::kBase},
                                {"seg", Sort::kBase},
                                {"rrp", Sort::kNum},
                                {"dis", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema(
                   "Orders", {{"id", Sort::kBase},
                              {"pr", Sort::kBase},
                              {"q", Sort::kNum},
                              {"dis", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema(
                   "Market", {{"seg", Sort::kBase},
                              {"rrp", Sort::kNum},
                              {"dis", Sort::kNum}}))
                 .ok());
  return db;
}

TEST(SqlParserTest, CompetitiveAdvantageQuery) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT P.seg FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
      db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  EXPECT_EQ(cq->atoms.size(), 2u);
  EXPECT_EQ(cq->base_equalities.size(), 1u);
  EXPECT_EQ(cq->comparisons.size(), 1u);
  ASSERT_TRUE(cq->limit.has_value());
  EXPECT_EQ(*cq->limit, 25u);
  ASSERT_EQ(cq->output.size(), 1u);
  EXPECT_EQ(cq->output[0].name, "P.seg");
  EXPECT_EQ(cq->output[0].sort, Sort::kBase);
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "select P.id from Products P where P.rrp < 10 limit 5", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  EXPECT_EQ(cq->comparisons.size(), 1u);
}

TEST(SqlParserTest, BareColumnResolvedUnambiguously) {
  Database db = SalesSchemaDb();
  // "q" exists only in Orders.
  auto cq = ParseSqlQuery("SELECT q FROM Orders WHERE q > 3", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  EXPECT_EQ(cq->output[0].name, "Orders.q");
}

TEST(SqlParserTest, TrailingGarbageInNumberLiteralRejected) {
  Database db = SalesSchemaDb();
  // "1.2.3" must not silently evaluate as 1.2.
  auto cq = ParseSqlQuery("SELECT q FROM Orders WHERE q < 1.2.3", db);
  EXPECT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(cq.status().message().find("1.2.3"), std::string::npos)
      << cq.status();

  auto dots = ParseSqlQuery("SELECT q FROM Orders WHERE q < 1..2", db);
  EXPECT_FALSE(dots.ok());
  EXPECT_EQ(dots.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SqlParserTest, ScientificNotationLiterals) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT q FROM Orders WHERE q < 1e-3 AND q > 2.5E+4 AND q <> 3e2",
      db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  ASSERT_EQ(cq->comparisons.size(), 3u);
  using logic::Term;
  ASSERT_EQ(cq->comparisons[0].rhs.kind(), Term::Kind::kConst);
  EXPECT_DOUBLE_EQ(cq->comparisons[0].rhs.const_value(), 1e-3);
  ASSERT_EQ(cq->comparisons[1].rhs.kind(), Term::Kind::kConst);
  EXPECT_DOUBLE_EQ(cq->comparisons[1].rhs.const_value(), 2.5e4);
  ASSERT_EQ(cq->comparisons[2].rhs.kind(), Term::Kind::kConst);
  EXPECT_DOUBLE_EQ(cq->comparisons[2].rhs.const_value(), 300.0);
}

TEST(SqlParserTest, ExponentWithoutDigitsIsNotConsumed) {
  Database db = SalesSchemaDb();
  // "2e" lexes as the number 2 followed by the identifier e — a parse
  // error downstream, never a silently mangled literal.
  auto cq = ParseSqlQuery("SELECT q FROM Orders WHERE q < 2e", db);
  EXPECT_FALSE(cq.ok());
  // An alias named like an exponent head keeps working.
  auto ok = ParseSqlQuery("SELECT e.q FROM Orders e WHERE e.q < 1e1", db);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->comparisons.size(), 1u);
  EXPECT_DOUBLE_EQ(ok->comparisons[0].rhs.const_value(), 10.0);
}

TEST(SqlParserTest, OverflowingNumberLiteralRejected) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery("SELECT q FROM Orders WHERE q < 1e999", db);
  EXPECT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(cq.status().message().find("1e999"), std::string::npos)
      << cq.status();
}

TEST(SqlParserTest, AmbiguousBareColumnRejected) {
  Database db = SalesSchemaDb();
  // "dis" is in Products, Orders and Market.
  auto cq = ParseSqlQuery("SELECT dis FROM Products, Orders", db);
  EXPECT_FALSE(cq.ok());
  EXPECT_NE(cq.status().message().find("ambiguous"), std::string::npos);
}

TEST(SqlParserTest, ArithmeticPrecedence) {
  Database db = SalesSchemaDb();
  // rrp + dis * 2 must parse as rrp + (dis * 2).
  auto cq = ParseSqlQuery(
      "SELECT P.id FROM Products P WHERE P.rrp + P.dis * 2 < 10", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  const logic::Term& lhs = cq->comparisons[0].lhs;
  EXPECT_EQ(lhs.kind(), logic::Term::Kind::kAdd);
  EXPECT_EQ(lhs.children()[1].kind(), logic::Term::Kind::kMul);
}

TEST(SqlParserTest, ParenthesesAndUnaryMinus) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT P.id FROM Products P WHERE (P.rrp + P.dis) * -2 < 10", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  EXPECT_EQ(cq->comparisons[0].lhs.kind(), logic::Term::Kind::kMul);
}

TEST(SqlParserTest, DivisionByLiteralFolded) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT O.id FROM Orders O WHERE O.dis / 2 < 1", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  // dis / 2 becomes dis * 0.5.
  EXPECT_EQ(cq->comparisons[0].lhs.kind(), logic::Term::Kind::kMul);
}

TEST(SqlParserTest, DivisionByColumnRejectedWithGuidance) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT O.id FROM Orders O WHERE O.dis / O.q < 1", db);
  EXPECT_FALSE(cq.ok());
  EXPECT_NE(cq.status().message().find("multiply"), std::string::npos);
}

TEST(SqlParserTest, StringLiteralBaseEquality) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT P.id FROM Products P WHERE P.seg = 'seg7'", db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  ASSERT_EQ(cq->base_equalities.size(), 1u);
  EXPECT_FALSE(cq->base_equalities[0].rhs.is_var());
  EXPECT_EQ(cq->base_equalities[0].rhs.text(), "seg7");
}

TEST(SqlParserTest, MixedSortComparisonRejected) {
  Database db = SalesSchemaDb();
  EXPECT_FALSE(
      ParseSqlQuery("SELECT P.id FROM Products P WHERE P.seg < P.rrp", db)
          .ok());
  EXPECT_FALSE(
      ParseSqlQuery("SELECT P.id FROM Products P WHERE P.seg + 1 < 2", db)
          .ok());
}

TEST(SqlParserTest, BaseInequalityRejected) {
  Database db = SalesSchemaDb();
  auto cq = ParseSqlQuery(
      "SELECT P.id FROM Products P, Market M WHERE P.seg <> M.seg", db);
  EXPECT_FALSE(cq.ok());
}

TEST(SqlParserTest, ErrorsCarryContext) {
  Database db = SalesSchemaDb();
  EXPECT_FALSE(ParseSqlQuery("", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT FROM Products", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.id Products P", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.id FROM Nope P", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.nope FROM Products P", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.id FROM Products P WHERE", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.id FROM Products P LIMIT x", db).ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT P.id FROM Products P trailing", db).ok());
  EXPECT_FALSE(ParseSqlQuery(
                   "SELECT P.id FROM Products P WHERE P.rrp < 'abc", db)
                   .ok());  // unterminated string
}

TEST(SqlParserTest, LimitMustBeANonNegativeInteger) {
  Database db = SalesSchemaDb();
  auto zero = ParseSqlQuery("SELECT P.id FROM Products P LIMIT 0", db);
  ASSERT_TRUE(zero.ok()) << zero.status();
  ASSERT_TRUE(zero->limit.has_value());
  EXPECT_EQ(*zero->limit, 0u);
  // A fraction, an exponent, an out-of-range count and a sign all fail;
  // none may be truncated into a row count.
  for (const char* bad : {"2.5", "0.5", "1e3", "1e300", "-1"}) {
    auto cq = ParseSqlQuery(
        std::string("SELECT P.id FROM Products P LIMIT ") + bad, db);
    ASSERT_FALSE(cq.ok()) << bad;
    EXPECT_EQ(cq.status().code(), util::StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SqlParserTest, DuplicateAliasRejected) {
  Database db = SalesSchemaDb();
  EXPECT_FALSE(
      ParseSqlQuery("SELECT P.id FROM Products P, Market P", db).ok());
}

TEST(SqlUnionTest, ParsesTwoBranches) {
  Database db = SalesSchemaDb();
  auto uq = ParseSqlUnionQuery(
      "SELECT P.id FROM Products P WHERE P.rrp < 10 "
      "UNION SELECT O.pr FROM Orders O WHERE O.q > 5 LIMIT 7",
      db);
  ASSERT_TRUE(uq.ok()) << uq.status();
  ASSERT_EQ(uq->branches.size(), 2u);
  ASSERT_TRUE(uq->limit.has_value());
  EXPECT_EQ(*uq->limit, 7u);
  EXPECT_FALSE(uq->branches[0].limit.has_value());
  EXPECT_FALSE(uq->branches[1].limit.has_value());
}

TEST(SqlUnionTest, SingleBranchAccepted) {
  Database db = SalesSchemaDb();
  auto uq = ParseSqlUnionQuery(
      "SELECT P.id FROM Products P WHERE P.rrp < 10", db);
  ASSERT_TRUE(uq.ok()) << uq.status();
  EXPECT_EQ(uq->branches.size(), 1u);
  EXPECT_FALSE(uq->limit.has_value());
}

TEST(SqlUnionTest, RejectsLimitBeforeUnion) {
  Database db = SalesSchemaDb();
  auto uq = ParseSqlUnionQuery(
      "SELECT P.id FROM Products P LIMIT 3 "
      "UNION SELECT O.pr FROM Orders O",
      db);
  EXPECT_FALSE(uq.ok());
  EXPECT_NE(uq.status().message().find("final UNION branch"),
            std::string::npos);
}

TEST(SqlUnionTest, RejectsMismatchedBranches) {
  Database db = SalesSchemaDb();
  // Different arities.
  EXPECT_FALSE(ParseSqlUnionQuery(
                   "SELECT P.id FROM Products P "
                   "UNION SELECT O.pr, O.q FROM Orders O",
                   db)
                   .ok());
  // Different sorts at the same position.
  EXPECT_FALSE(ParseSqlUnionQuery(
                   "SELECT P.id FROM Products P "
                   "UNION SELECT O.q FROM Orders O",
                   db)
                   .ok());
  // Broken second branch.
  EXPECT_FALSE(ParseSqlUnionQuery(
                   "SELECT P.id FROM Products P UNION SELECT", db)
                   .ok());
}

TEST(SqlParserTest, ParsedQueryExecutes) {
  Database db = SalesSchemaDb();
  ASSERT_TRUE(db.Insert("Products",
                        {Value::BaseConst("p1"), Value::BaseConst("s1"),
                         Value::NumConst(10), Value::NumConst(0.8)})
                  .ok());
  ASSERT_TRUE(db.Insert("Market", {Value::BaseConst("s1"),
                                   Value::NumConst(20), Value::NumConst(0.9)})
                  .ok());
  auto cq = ParseSqlQuery(
      "SELECT P.seg FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis",
      db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  auto result = engine::EvaluateCq(db, *cq);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);  // 8 <= 18, no nulls involved
}

// Deeply nested input fails with a Status naming the depth limit instead of
// overflowing the stack; input exactly at the limit parses and evaluates.
TEST(SqlParserTest, ExpressionDepthIsBounded) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("R", {{"a", Sort::kNum}})).ok());
  ASSERT_TRUE(db.Insert("R", {Value::NumConst(5)}).ok());
  const std::string prefix = "SELECT a FROM R WHERE a < ";
  auto repeat = [](const std::string& piece, int times) {
    std::string out;
    out.reserve(piece.size() * static_cast<size_t>(times));
    for (int i = 0; i < times; ++i) out += piece;
    return out;
  };
  const std::string too_deep[] = {
      prefix + repeat("(", 10000) + "1" + repeat(")", 10000),
      prefix + repeat("-", 100000) + "1",
      prefix + "1" + repeat(" + 1", 100000),
      prefix + "1" + repeat(" + 1", 257),
  };
  for (const std::string& sql : too_deep) {
    auto cq = ParseSqlQuery(sql, db);
    ASSERT_FALSE(cq.ok());
    EXPECT_EQ(cq.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(cq.status().message().find("limit of 256 levels"),
              std::string::npos)
        << cq.status();
  }

  // 256 additions, 256 parentheses and 256 minus signs each nest exactly
  // 256 levels deep, the limit.
  auto sum = ParseSqlQuery(prefix + "1" + repeat(" + 1", 256), db);
  ASSERT_TRUE(sum.ok()) << sum.status();
  auto result = engine::EvaluateCq(db, *sum);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);  // 5 < 257
  EXPECT_TRUE(
      ParseSqlQuery(prefix + repeat("(", 256) + "1" + repeat(")", 256), db)
          .ok());
  EXPECT_TRUE(ParseSqlQuery(prefix + repeat("-", 256) + "1", db).ok());
}

// Robustness: mutated inputs must produce a Status, never a crash, and
// accepted queries must still validate against the schema.
class SqlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlFuzzTest, MutatedQueriesNeverCrash) {
  Database db = SalesSchemaDb();
  const std::string base =
      "SELECT P.seg FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25";
  util::Rng rng(GetParam());
  const std::string alphabet = "abPOM.,*<>=()'+-/0123456789 ";
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = base;
    int edits = static_cast<int>(rng.UniformInt(1, 6));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // replace
          mutated[pos] = alphabet[rng.UniformInt(
              0, static_cast<int64_t>(alphabet.size()) - 1)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // insert
          mutated.insert(pos, 1,
                         alphabet[rng.UniformInt(
                             0, static_cast<int64_t>(alphabet.size()) - 1)]);
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    auto cq = ParseSqlQuery(mutated, db);
    if (cq.ok()) {
      EXPECT_TRUE(cq->Validate(db).ok()) << mutated;
    }
    auto uq = ParseSqlUnionQuery(mutated, db);
    if (uq.ok()) {
      EXPECT_TRUE(uq->Validate(db).ok()) << mutated;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mudb::sql
