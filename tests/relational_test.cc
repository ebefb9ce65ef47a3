#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "relational/column.h"
#include "relational/database.h"
#include "relational/string_pool.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace lshap {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(int64_t{42}).AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("Universal").ToString(), "Universal");
}

TEST(ValueTest, SqlLiteralQuotesStrings) {
  EXPECT_EQ(Value("USA").ToSqlLiteral(), "'USA'");
  EXPECT_EQ(Value(int64_t{2007}).ToSqlLiteral(), "2007");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_NE(Value(int64_t{1}), Value("1"));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(), Value(int64_t{0}));         // null < numeric
  EXPECT_LT(Value(int64_t{5}), Value("a"));      // numeric < string
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{9}).Hash(), Value(int64_t{9}).Hash());
  EXPECT_EQ(Value("hi").Hash(), Value("hi").Hash());
}

TEST(SchemaTest, ColumnLookup) {
  Schema s("movies", {{"title", ColumnType::kString},
                      {"year", ColumnType::kInt}});
  EXPECT_EQ(s.table_name(), "movies");
  EXPECT_EQ(s.num_columns(), 2u);
  ASSERT_TRUE(s.ColumnIndex("year").ok());
  EXPECT_EQ(*s.ColumnIndex("year"), 1u);
  EXPECT_FALSE(s.ColumnIndex("rating").ok());
  EXPECT_TRUE(s.HasColumn("title"));
  EXPECT_FALSE(s.HasColumn("studio"));
}

TEST(DatabaseTest, InsertAndResolveFacts) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kString}}))
                  .ok());
  auto f0 = db.Insert("t", {Value(int64_t{1}), Value("x")});
  auto f1 = db.Insert("t", {Value(int64_t{2}), Value("y")});
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f1.ok());
  EXPECT_NE(*f0, *f1);
  EXPECT_EQ(db.num_facts(), 2u);
  EXPECT_EQ(db.FactValues(*f1)[1], Value("y"));
  EXPECT_EQ(db.FactTableName(*f0), "t");
  EXPECT_EQ(db.FactToString(*f0), "t(1, x)");
}

TEST(DatabaseTest, RejectsDuplicateTable) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  EXPECT_FALSE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
}

TEST(DatabaseTest, RejectsArityMismatch) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  EXPECT_FALSE(db.Insert("t", {Value(int64_t{1}), Value(int64_t{2})}).ok());
}

TEST(DatabaseTest, RejectsUnknownTable) {
  Database db("test");
  EXPECT_FALSE(db.Insert("nope", {Value(int64_t{1})}).ok());
  EXPECT_FALSE(db.FindTable("nope").ok());
}

TEST(StringPoolTest, InternDedupsAndFinds) {
  StringPool pool;
  const StringId a = pool.Intern("alpha");
  const StringId b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Get(a), "alpha");
  EXPECT_EQ(pool.Get(b), "beta");
  EXPECT_EQ(pool.Find("beta"), b);
  // Find() never mutates: a miss returns the sentinel and adds nothing.
  EXPECT_EQ(pool.Find("gamma"), kInvalidStringId);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPoolTest, IdsAreDense) {
  StringPool pool;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.Intern(std::string("s").append(std::to_string(i))),
              static_cast<StringId>(i));
  }
}

TEST(ColumnDataTest, TypedAppendAndRead) {
  StringPool pool;
  ColumnData ints(ColumnType::kInt);
  ints.AppendInt(-7);
  ints.AppendInt(12);
  EXPECT_EQ(ints.IntAt(0), -7);
  EXPECT_EQ(ints.IntAt(1), 12);
  EXPECT_EQ(ints.GetValue(0, pool), Value(int64_t{-7}));

  ColumnData strs(ColumnType::kString);
  strs.AppendString(pool.Intern("x"));
  EXPECT_EQ(strs.GetValue(0, pool), Value("x"));
}

TEST(ColumnDataTest, KeyWordMatchesValueEquality) {
  StringPool pool;
  // Negative zero and positive zero compare equal as doubles, so their key
  // words must collide; raw bit patterns would not.
  ColumnData dbl(ColumnType::kDouble);
  dbl.AppendDouble(0.0);
  dbl.AppendDouble(-0.0);
  dbl.AppendDouble(1.5);
  EXPECT_EQ(dbl.KeyWord(0), dbl.KeyWord(1));
  EXPECT_NE(dbl.KeyWord(0), dbl.KeyWord(2));
  EXPECT_EQ(dbl.KeyWord(2), std::bit_cast<uint64_t>(1.5));

  ColumnData ints(ColumnType::kInt);
  ints.AppendInt(-1);
  ints.AppendInt(-1);
  ints.AppendInt(3);
  EXPECT_EQ(ints.KeyWord(0), ints.KeyWord(1));
  EXPECT_NE(ints.KeyWord(0), ints.KeyWord(2));

  ColumnData strs(ColumnType::kString);
  strs.AppendString(pool.Intern("a"));
  strs.AppendString(pool.Intern("b"));
  strs.AppendString(pool.Intern("a"));
  EXPECT_EQ(strs.KeyWord(0), strs.KeyWord(2));
  EXPECT_NE(strs.KeyWord(0), strs.KeyWord(1));
}

TEST(DatabaseTest, AppendBuildsRows) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kString},
                                       {"c", ColumnType::kDouble}}))
                  .ok());
  RowBatch batch = db.BatchFor("t");
  batch.Begin().Int(1).Str("one").Real(1.5).End();
  batch.Begin().Int(2).Str("two").Real(2.5).End();
  const std::vector<FactId> ids = db.Append(batch);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
  const Table* t = *db.FindTable("t");
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->DecodeRow(0),
            (std::vector<Value>{Value(int64_t{1}), Value("one"), Value(1.5)}));
  EXPECT_EQ(t->GetValue(1, 1), Value("two"));
  EXPECT_EQ(t->fact_id(1), ids[1]);
}

TEST(DatabaseTest, SharedStringsInternOnce) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"s", ColumnType::kString}})).ok());
  ASSERT_TRUE(db.AddTable(Schema("u", {{"s", ColumnType::kString}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value("shared")}).ok());
  ASSERT_TRUE(db.Insert("u", {Value("shared")}).ok());
  ASSERT_TRUE(db.Insert("u", {Value("only_u")}).ok());
  EXPECT_EQ(db.string_pool().size(), 2u);
  // Same string in different tables maps to the same id — the invariant the
  // evaluator's interned-key joins rely on.
  const Table* t = *db.FindTable("t");
  const Table* u = *db.FindTable("u");
  EXPECT_EQ(t->column(0).KeyWord(0), u->column(0).KeyWord(0));
}

TEST(DatabaseTest, InsertRejectsTypeMismatch) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kString}}))
                  .ok());
  EXPECT_FALSE(db.Insert("t", {Value("oops"), Value("x")}).ok());
  EXPECT_FALSE(db.Insert("t", {Value(int64_t{1}), Value(int64_t{2})}).ok());
  // A rejected row must not leave partial column state behind.
  EXPECT_EQ((*db.FindTable("t"))->num_rows(), 0u);
  ASSERT_TRUE(db.Insert("t", {Value(int64_t{1}), Value("x")}).ok());
  EXPECT_EQ((*db.FindTable("t"))->num_rows(), 1u);
  // Value::Null() is NOT a mismatch: NULL is a storable cell for any column
  // type (see null_semantics_test for the full ingest surface).
  ASSERT_TRUE(db.Insert("t", {Value::Null(), Value("x")}).ok());
  EXPECT_EQ((*db.FindTable("t"))->num_rows(), 2u);
  EXPECT_TRUE((*db.FindTable("t"))->GetValue(1, 0).is_null());
}

TEST(OutputTupleTest, HashAndToString) {
  OutputTuple t = {Value("Alice"), Value(int64_t{45})};
  OutputTuple same = {Value("Alice"), Value(int64_t{45})};
  OutputTuple other = {Value("Bob"), Value(int64_t{45})};
  OutputTupleHash h;
  EXPECT_EQ(h(t), h(same));
  EXPECT_EQ(t, same);
  EXPECT_NE(t, other);
  EXPECT_EQ(OutputTupleToString(t), "(Alice, 45)");
}

// ---------------------------------------------------------------------------
// Batch ingest (relational/table.h): a committed RowBatch and the same rows
// inserted one at a time produce byte-identical tables and fact ids.
// ---------------------------------------------------------------------------

Schema BatchSchema() {
  return Schema("t", {{"a", ColumnType::kInt},
                      {"b", ColumnType::kString},
                      {"c", ColumnType::kDouble}});
}

// The reference: row-at-a-time Insert of three rows. Note the int fed to
// the kDouble column — the promotion rule batch ingest must reproduce.
// (unique_ptr because Database pins interior pointers and is immovable.)
std::unique_ptr<Database> RowAtATimeDb() {
  auto db = std::make_unique<Database>("test");
  EXPECT_TRUE(db->AddTable(BatchSchema()).ok());
  EXPECT_TRUE(
      db->Insert("t", {Value(int64_t{1}), Value("x"), Value(0.5)}).ok());
  EXPECT_TRUE(
      db->Insert("t", {Value(int64_t{2}), Value("y"), Value(int64_t{7})})
          .ok());
  EXPECT_TRUE(
      db->Insert("t", {Value(int64_t{3}), Value("x"), Value(-1.25)}).ok());
  return db;
}

void ExpectSameTable(const Database& got, const Database& want) {
  const Table* tg = *got.FindTable("t");
  const Table* tw = *want.FindTable("t");
  ASSERT_EQ(tg->num_rows(), tw->num_rows());
  for (size_t i = 0; i < tw->num_rows(); ++i) {
    EXPECT_EQ(tg->DecodeRow(i), tw->DecodeRow(i)) << "row " << i;
    EXPECT_EQ(tg->fact_id(i), tw->fact_id(i)) << "row " << i;
  }
  EXPECT_EQ(got.num_facts(), want.num_facts());
}

TEST(BatchIngestTest, RowBatchMatchesRowAtATime) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(BatchSchema()).ok());
  RowBatch batch = db.BatchFor("t");
  batch.Begin().Int(1).Str("x").Real(0.5).End();
  batch.Begin().Int(2).Str("y").Int(7).End();  // Int into kDouble promotes
  batch.Begin().Int(3).Str("x").Real(-1.25).End();
  EXPECT_EQ(batch.num_rows(), 3u);
  const std::vector<FactId> ids = db.Append(batch);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);  // fact ids in row order
  EXPECT_LT(ids[1], ids[2]);
  ExpectSameTable(db, *RowAtATimeDb());
}

TEST(BatchIngestTest, IntPromotesIntoDoubleColumn) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"c", ColumnType::kDouble}})).ok());
  RowBatch batch = db.BatchFor("t");
  batch.Begin().Int(4).End();
  batch.Begin().Null().End();
  batch.Begin().Int(-2).End();
  db.Append(batch);
  const Table* t = *db.FindTable("t");
  EXPECT_EQ(t->GetValue(0, 0), Value(4.0));
  EXPECT_TRUE(t->GetValue(1, 0).is_null());
  EXPECT_EQ(t->GetValue(2, 0), Value(-2.0));
}

TEST(BatchIngestTest, EmptyBatchCommitsNothing) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(BatchSchema()).ok());
  EXPECT_TRUE(db.Append(db.BatchFor("t")).empty());
  EXPECT_EQ((*db.FindTable("t"))->num_rows(), 0u);
  EXPECT_EQ(db.num_facts(), 0u);
}

TEST(BatchIngestTest, BatchesInterleaveWithInsert) {
  // A committed batch and an inserted row can alternate freely; fact ids
  // stay dense and in ingest order.
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt}})).ok());
  RowBatch first = db.BatchFor("t");
  first.Begin().Int(10).End();
  first.Begin().Int(11).End();
  const std::vector<FactId> head = db.Append(first);
  auto mid = db.Insert("t", {Value(int64_t{12})});
  ASSERT_TRUE(mid.ok());
  RowBatch last = db.BatchFor("t");
  last.Begin().Int(13).End();
  const std::vector<FactId> tail = db.Append(last);
  const Table* t = *db.FindTable("t");
  ASSERT_EQ(t->num_rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t->GetValue(i, 0), Value(static_cast<int64_t>(10 + i)));
  }
  ASSERT_EQ(head.size(), 2u);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(head[1], head[0] + 1);
  EXPECT_EQ(*mid, head[1] + 1);
  EXPECT_EQ(tail[0], *mid + 1);
}

TEST(BatchIngestDeathTest, MalformedBatchesFailBeforeWriting) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(Schema("t", {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(db.AddTable(Schema("u", {{"a", ColumnType::kString}})).ok());
  // An unfinished last row leaves column 0 one cell longer than num_rows().
  RowBatch ragged = db.BatchFor("t");
  ragged.Begin().Int(1).Str("x").End();
  ragged.Begin().Int(2);
  EXPECT_DEATH(db.Append(ragged), "CHECK failed");
  // Same table name, different column types.
  RowBatch mistyped(Schema("t", {{"a", ColumnType::kInt},
                                 {"b", ColumnType::kInt}}));
  EXPECT_DEATH(db.Append(mistyped), "CHECK failed");
  // A batch for a table the database does not have.
  EXPECT_DEATH(db.Append(RowBatch(Schema("v", {{"a", ColumnType::kInt}}))),
               "CHECK failed");
  // A cell of the wrong type fails where it is staged.
  RowBatch u = db.BatchFor("u");
  EXPECT_DEATH(u.Begin().Int(1), "CHECK failed");
  EXPECT_EQ((*db.FindTable("t"))->num_rows(), 0u);
  EXPECT_EQ(db.num_facts(), 0u);
}

}  // namespace
}  // namespace lshap
