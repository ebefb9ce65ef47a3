#include <gtest/gtest.h>

#include "paper_fixture.h"
#include "shapley/aggregates.h"

namespace lshap {
namespace {

class AggregatesTest : public ::testing::Test {
 protected:
  AggregatesTest() : ex_(MakePaperExample()), pool_(2) {}
  PaperExample ex_;
  ThreadPool pool_;
};

TEST_F(AggregatesTest, CountTotalsAndEfficiency) {
  auto attribution = ComputeShapleyForCount(*ex_.db, ex_.q_inf, pool_);
  ASSERT_TRUE(attribution.ok()) << attribution.status().ToString();
  // q_inf returns {Alice, Bob} → COUNT = 2, and by per-tuple efficiency the
  // fact values must add up to it.
  EXPECT_DOUBLE_EQ(attribution->total, 2.0);
  double sum = 0.0;
  for (const auto& [f, v] : attribution->values) sum += v;
  EXPECT_NEAR(sum, 2.0, 1e-9);
}

TEST_F(AggregatesTest, CountLinearityOverTuples) {
  auto attribution = ComputeShapleyForCount(*ex_.db, ex_.q_inf, pool_);
  ASSERT_TRUE(attribution.ok());
  // Per-tuple Shapley values computed independently must sum to the
  // aggregate attribution.
  auto eval = Evaluate(*ex_.db, ex_.q_inf);
  ASSERT_TRUE(eval.ok());
  ShapleyValues manual;
  for (size_t i = 0; i < eval->tuples.size(); ++i) {
    const ShapleyValues values =
        ComputeShapleyExact(eval->ProvenanceOf(i)).value();
    for (const auto& [f, v] : values) manual[f] += v;
  }
  ASSERT_EQ(manual.size(), attribution->values.size());
  for (const auto& [f, v] : manual) {
    EXPECT_NEAR(attribution->values.at(f), v, 1e-12);
  }
}

TEST_F(AggregatesTest, CountRanksSharedFactsHighest) {
  auto attribution = ComputeShapleyForCount(*ex_.db, ex_.q_inf, pool_);
  ASSERT_TRUE(attribution.ok());
  // Universal supports derivations of both Alice and Bob; Warner only of
  // Alice. For the COUNT aggregate Universal must dominate Warner.
  EXPECT_GT(attribution->values.at(ex_.c1), attribution->values.at(ex_.c2));
}

TEST_F(AggregatesTest, SumOverNumericColumn) {
  // SUM(actors.age) over "actors in 2007 USA movies": Alice 45, Bob 30.
  Query q = ex_.q_inf;
  q.blocks[0].projections = {{"actors", "age"}};
  auto attribution = ComputeShapleyForSum(*ex_.db, q, {"actors", "age"},
                                          pool_);
  ASSERT_TRUE(attribution.ok()) << attribution.status().ToString();
  EXPECT_DOUBLE_EQ(attribution->total, 75.0);
  double sum = 0.0;
  for (const auto& [f, v] : attribution->values) sum += v;
  EXPECT_NEAR(sum, 75.0, 1e-9);
}

TEST_F(AggregatesTest, SumRejectsUnprojectedColumn) {
  auto attribution = ComputeShapleyForSum(*ex_.db, ex_.q_inf,
                                          {"actors", "age"}, pool_);
  EXPECT_FALSE(attribution.ok());
  EXPECT_EQ(attribution.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggregatesTest, SumRejectsStringColumn) {
  auto attribution = ComputeShapleyForSum(*ex_.db, ex_.q_inf,
                                          {"actors", "name"}, pool_);
  EXPECT_FALSE(attribution.ok());
}

TEST_F(AggregatesTest, EmptyResultGivesZeroAggregate) {
  Query q = ex_.q_inf;
  q.blocks[0].selections[1].literal = Value(int64_t{1800});
  auto attribution = ComputeShapleyForCount(*ex_.db, q, pool_);
  ASSERT_TRUE(attribution.ok());
  EXPECT_DOUBLE_EQ(attribution->total, 0.0);
  EXPECT_TRUE(attribution->values.empty());
}

// SQL's SUM skips NULLs, so an output tuple whose SUM cell is NULL weighs 0
// instead of failing the query. Tiny database: emp ⋈ dept projecting
// salary gives the distinct tuples 10 = (e1∧d1)∨(e4∧d2), NULL = e2∧d1 and
// 5 = e3∧d2.
TEST(AggregatesNullTest, SumGivesNullCellsWeightZero) {
  Database db("tiny");
  ASSERT_TRUE(db.AddTable(Schema("dept", {{"name", ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(db.AddTable(Schema("emp", {{"name", ColumnType::kString},
                                         {"dept", ColumnType::kString},
                                         {"salary", ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.Insert("dept", {Value("eng")}).ok());
  ASSERT_TRUE(db.Insert("dept", {Value("ops")}).ok());
  ASSERT_TRUE(
      db.Insert("emp", {Value("ann"), Value("eng"), Value(int64_t{10})}).ok());
  ASSERT_TRUE(
      db.Insert("emp", {Value("bob"), Value("eng"), Value::Null()}).ok());
  ASSERT_TRUE(
      db.Insert("emp", {Value("cat"), Value("ops"), Value(int64_t{5})}).ok());
  ASSERT_TRUE(
      db.Insert("emp", {Value("dan"), Value("ops"), Value(int64_t{10})}).ok());

  SpjBlock block;
  block.tables = {"emp", "dept"};
  block.joins = {{{"emp", "dept"}, {"dept", "name"}}};
  block.projections = {{"emp", "salary"}};
  Query q;
  q.id = "salaries";
  q.blocks = {block};

  ThreadPool pool(2);
  auto attribution = ComputeShapleyForSum(db, q, {"emp", "salary"}, pool);
  ASSERT_TRUE(attribution.ok()) << attribution.status().ToString();
  EXPECT_DOUBLE_EQ(attribution->total, 15.0);

  auto eval = Evaluate(db, q);
  ASSERT_TRUE(eval.ok());
  ASSERT_EQ(eval->tuples.size(), 3u);
  ShapleyValues want;
  for (size_t i = 0; i < eval->tuples.size(); ++i) {
    const Value& cell = eval->tuples[i][0];
    const double w = cell.is_null() ? 0.0 : cell.AsDouble();
    auto brute = ComputeShapleyBrute(eval->ProvenanceOf(i));
    ASSERT_TRUE(brute.ok());
    for (const auto& [f, v] : *brute) want[f] += w * v;
  }
  ASSERT_EQ(attribution->values.size(), want.size());
  double sum = 0.0;
  for (const auto& [f, v] : want) {
    EXPECT_NEAR(attribution->values.at(f), v, 1e-12);
    sum += attribution->values.at(f);
  }
  EXPECT_NEAR(sum, attribution->total, 1e-9);
}

}  // namespace
}  // namespace lshap
