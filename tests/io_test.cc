// Tests for CSV import/export of incomplete relations.

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/engine/eval.h"
#include "src/io/csv.h"
#include "src/measure/measure.h"
#include "src/sql/parser.h"

namespace mudb::io {
namespace {

using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Value;

RelationSchema ItemsSchema() {
  return RelationSchema("Items", {{"name", Sort::kBase},
                                  {"price", Sort::kNum}});
}

TEST(CsvLoadTest, BasicRowsWithHeader) {
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "apple,1.5\n"
                              "pear,2\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, 2u);
  const model::Relation* rel = db.GetRelation("Items").value();
  EXPECT_EQ(rel->tuples()[0][0], Value::BaseConst("apple"));
  EXPECT_EQ(rel->tuples()[0][1], Value::NumConst(1.5));
}

TEST(CsvLoadTest, NullTokensBecomeFreshMarkedNulls) {
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "apple,NULL\n"
                              "NULL,3\n"
                              "pear,NULL\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(db.CollectNumNullIds().size(), 2u);  // two distinct ⊤
  EXPECT_EQ(db.CollectBaseNullIds().size(), 1u);
  const auto& tuples = db.GetRelation("Items").value()->tuples();
  EXPECT_NE(tuples[0][1], tuples[2][1]);  // fresh marks are distinct
}

TEST(CsvLoadTest, TaggedNullsShareIdentityAcrossRelations) {
  Database db;
  ASSERT_TRUE(LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\napple,NULL:p1\n")
                  .ok());
  // A second relation referencing the same tag must reuse the same ⊤... the
  // registry is per-load, so within one load identity is shared:
  Database db2;
  auto rows = LoadCsvRelation(&db2, ItemsSchema(),
                              "name,price\n"
                              "apple,NULL:x\n"
                              "pear,NULL:x\n"
                              "plum,NULL:y\n");
  ASSERT_TRUE(rows.ok());
  const auto& tuples = db2.GetRelation("Items").value()->tuples();
  EXPECT_EQ(tuples[0][1], tuples[1][1]);
  EXPECT_NE(tuples[0][1], tuples[2][1]);
}

TEST(CsvLoadTest, QuotedFieldsAndEscapes) {
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "\"a,b\",1\n"
                              "\"say \"\"hi\"\"\",2\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  const auto& tuples = db.GetRelation("Items").value()->tuples();
  EXPECT_EQ(tuples[0][0], Value::BaseConst("a,b"));
  EXPECT_EQ(tuples[1][0], Value::BaseConst("say \"hi\""));
}

TEST(CsvLoadTest, HeaderValidation) {
  Database db;
  EXPECT_FALSE(LoadCsvRelation(&db, ItemsSchema(),
                               "name,cost\napple,1\n")
                   .ok());
  Database db2;
  EXPECT_FALSE(LoadCsvRelation(&db2, ItemsSchema(), "name\napple\n").ok());
  // Header can be skipped.
  Database db3;
  CsvOptions no_header;
  no_header.has_header = false;
  EXPECT_TRUE(LoadCsvRelation(&db3, ItemsSchema(), "apple,1\n", no_header)
                  .ok());
}

TEST(CsvLoadTest, RejectsBadRows) {
  Database db;
  EXPECT_FALSE(LoadCsvRelation(&db, ItemsSchema(),
                               "name,price\napple\n")
                   .ok());  // wrong arity
  Database db2;
  EXPECT_FALSE(LoadCsvRelation(&db2, ItemsSchema(),
                               "name,price\napple,cheap\n")
                   .ok());  // non-numeric
  Database db3;
  EXPECT_FALSE(LoadCsvRelation(&db3, ItemsSchema(),
                               "name,price\n\"open,1\n")
                   .ok());  // unterminated quote
  Database db4;
  EXPECT_FALSE(LoadCsvRelation(&db4, ItemsSchema(),
                               "name,price\napple,1.5x\n")
                   .ok());  // trailing junk in number
}

TEST(CsvLoadTest, RejectsNonFiniteAndNonDecimalNumbers) {
  // std::stod would read the first five: as NaN, ±∞, 16 and 7. The next
  // four break the grammar. The last two leave a double's range: 1e999
  // overflows, and 1e-400 underflows to zero, which is refused rather than
  // read as 0.
  for (const char* cell : {"nan", "inf", "-inf", "0x10", " 7", ".", "1e",
                           "1.2.3", "+-3", "1e999", "1e-400"}) {
    Database db;
    auto rows = LoadCsvRelation(
        &db, ItemsSchema(), std::string("name,price\napple,") + cell + "\n");
    EXPECT_EQ(rows.status().code(), util::StatusCode::kInvalidArgument)
        << "'" << cell << "'";
  }
  // Sign, leading or trailing '.', and exponent forms still load.
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "a,1e3\n"
                              "b,-2.5\n"
                              "c,+3\n"
                              "d,.5\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  const auto& tuples = db.GetRelation("Items").value()->tuples();
  EXPECT_EQ(tuples[0][1], Value::NumConst(1000));
  EXPECT_EQ(tuples[1][1], Value::NumConst(-2.5));
  EXPECT_EQ(tuples[2][1], Value::NumConst(3));
  EXPECT_EQ(tuples[3][1], Value::NumConst(0.5));
}

TEST(CsvLoadTest, QuotedNullTokenIsAConstant) {
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "\"NULL\",1\n"
                              "\"NULL:b7\",2\n"
                              "NULL,3\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  const auto& tuples = db.GetRelation("Items").value()->tuples();
  EXPECT_EQ(tuples[0][0], Value::BaseConst("NULL"));
  EXPECT_EQ(tuples[1][0], Value::BaseConst("NULL:b7"));
  EXPECT_TRUE(tuples[2][0].is_null());
}

TEST(CsvLoadTest, TagSortConflictRejected) {
  Database db;
  RelationSchema schema("T", {{"a", Sort::kBase}, {"x", Sort::kNum}});
  EXPECT_FALSE(LoadCsvRelation(&db, schema,
                               "a,x\nNULL:k,NULL:k\n")
                   .ok());
}

TEST(CsvRoundTripTest, PreservesConstantsAndMarks) {
  Database db;
  ASSERT_TRUE(LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "apple,1.25\n"
                              "NULL:b1,NULL:n1\n"
                              "pear,NULL:n1\n")
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(
      WriteCsvRelation(*db.GetRelation("Items").value(), out).ok());

  Database db2;
  auto rows = LoadCsvRelation(&db2, ItemsSchema(), out.str());
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, 3u);
  const auto& t1 = db.GetRelation("Items").value()->tuples();
  const auto& t2 = db2.GetRelation("Items").value()->tuples();
  // Constants identical; null identity structure preserved (same/different).
  EXPECT_EQ(t1[0], t2[0]);
  EXPECT_EQ(t2[1][1], t2[2][1]);  // shared ⊤ stays shared
  EXPECT_TRUE(t2[1][0].is_null());
}

TEST(CsvLoadTest, QuotedFieldSpansInputLines) {
  // RFC 4180: a quoted field may contain embedded newlines. The record
  // scanner must not tear it apart at the line break.
  Database db;
  auto rows = LoadCsvRelation(&db, ItemsSchema(),
                              "name,price\n"
                              "\"two\nlines\",1\n"
                              "pear,2\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, 2u);
  const auto& tuples = db.GetRelation("Items").value()->tuples();
  EXPECT_EQ(tuples[0][0], Value::BaseConst("two\nlines"));
  EXPECT_EQ(tuples[1][0], Value::BaseConst("pear"));
}

TEST(CsvRoundTripTest, QuotedDelimiterNewlineCellsSurvive) {
  // Write → load is an identity even for cells that exercise every quoting
  // rule at once: embedded delimiters, doubled quotes, newlines, carriage
  // returns, plus numeric and marked-null columns alongside.
  Database db;
  ASSERT_TRUE(db.CreateRelation(ItemsSchema()).ok());
  ASSERT_TRUE(db.Insert("Items", {Value::BaseConst("a,b"),
                                  Value::NumConst(1.25)})
                  .ok());
  ASSERT_TRUE(db.Insert("Items", {Value::BaseConst("two\nlines"),
                                  Value::NumConst(-3)})
                  .ok());
  ASSERT_TRUE(db.Insert("Items", {Value::BaseConst("say \"hi\",\n\"bye\""),
                                  db.MakeNumNull()})
                  .ok());
  ASSERT_TRUE(db.Insert("Items", {Value::BaseConst("cr\rcell"),
                                  Value::NumConst(2.5e-4)})
                  .ok());
  // Constants spelled like the null token or a tagged null.
  ASSERT_TRUE(
      db.Insert("Items", {Value::BaseConst("NULL"), Value::NumConst(4)}).ok());
  ASSERT_TRUE(
      db.Insert("Items", {Value::BaseConst("NULL:b7"), Value::NumConst(5)})
          .ok());

  std::ostringstream out;
  ASSERT_TRUE(
      WriteCsvRelation(*db.GetRelation("Items").value(), out).ok());

  Database db2;
  auto rows = LoadCsvRelation(&db2, ItemsSchema(), out.str());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(*rows, 6u);
  const auto& t1 = db.GetRelation("Items").value()->tuples();
  const auto& t2 = db2.GetRelation("Items").value()->tuples();
  for (size_t r = 0; r < t1.size(); ++r) {
    EXPECT_EQ(t1[r][0], t2[r][0]) << "row " << r;
    if (!t1[r][1].is_null()) {
      EXPECT_EQ(t1[r][1], t2[r][1]) << "row " << r;
    } else {
      EXPECT_TRUE(t2[r][1].is_null()) << "row " << r;
    }
  }
}

TEST(CsvRoundTripTest, NonFiniteNumbersAreNotWritten) {
  // The loader refuses them, so the writer must not emit them — nor the
  // header and the rows before them, which would read back as a valid,
  // shorter relation.
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Database db;
    ASSERT_TRUE(db.CreateRelation(ItemsSchema()).ok());
    ASSERT_TRUE(
        db.Insert("Items", {Value::BaseConst("a"), Value::NumConst(1)}).ok());
    ASSERT_TRUE(
        db.Insert("Items", {Value::BaseConst("b"), Value::NumConst(bad)})
            .ok());
    std::ostringstream out;
    EXPECT_EQ(WriteCsvRelation(*db.GetRelation("Items").value(), out).code(),
              util::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_TRUE(out.str().empty()) << bad;
  }
}

TEST(CsvRoundTripTest, EmptyConstantInOneColumnRelationSurvives) {
  // Written bare, the empty constant would be an empty line, which the
  // loader skips.
  RelationSchema schema("Names", {{"name", Sort::kBase}});
  Database db;
  ASSERT_TRUE(db.CreateRelation(schema).ok());
  ASSERT_TRUE(db.Insert("Names", {Value::BaseConst("")}).ok());
  ASSERT_TRUE(db.Insert("Names", {Value::BaseConst("x")}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsvRelation(*db.GetRelation("Names").value(), out).ok());

  Database db2;
  auto rows = LoadCsvRelation(&db2, schema, out.str());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(*rows, 2u);
  const auto& tuples = db2.GetRelation("Names").value()->tuples();
  EXPECT_EQ(tuples[0][0], Value::BaseConst(""));
  EXPECT_EQ(tuples[1][0], Value::BaseConst("x"));
}

TEST(CsvEndToEndTest, LoadedDataFlowsThroughTheMeasurePipeline) {
  Database db;
  ASSERT_TRUE(LoadCsvRelation(
                  &db,
                  RelationSchema("Products", {{"id", Sort::kBase},
                                              {"seg", Sort::kBase},
                                              {"rrp", Sort::kNum}}),
                  "id,seg,rrp\n"
                  "p1,s1,10\n"
                  "p2,s1,NULL\n")
                  .ok());
  ASSERT_TRUE(LoadCsvRelation(&db,
                              RelationSchema("Market", {{"seg", Sort::kBase},
                                                        {"price", Sort::kNum}}),
                              "seg,price\ns1,20\n")
                  .ok());
  auto cq = sql::ParseSqlQuery(
      "SELECT P.id FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp <= M.price",
      db);
  ASSERT_TRUE(cq.ok()) << cq.status();
  auto result = engine::EvaluateCq(db, *cq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 2u);
  EXPECT_TRUE(result->candidates[0].certain);  // 10 <= 20
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(result->candidates[1].constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.5, 1e-9);  // ⊤ <= 20
}

}  // namespace
}  // namespace mudb::io
