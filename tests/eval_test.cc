#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "eval/evaluator.h"
#include "paper_fixture.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

TEST(PredicateTest, NumericComparisons) {
  EXPECT_TRUE(MatchesPredicate(Value(int64_t{2007}), CompareOp::kEq,
                               Value(int64_t{2007})));
  EXPECT_FALSE(MatchesPredicate(Value(int64_t{1999}), CompareOp::kEq,
                                Value(int64_t{2007})));
  EXPECT_TRUE(MatchesPredicate(Value(int64_t{5}), CompareOp::kLt,
                               Value(int64_t{9})));
  EXPECT_TRUE(MatchesPredicate(Value(3.5), CompareOp::kGe, Value(int64_t{3})));
  EXPECT_TRUE(MatchesPredicate(Value(int64_t{4}), CompareOp::kNe,
                               Value(int64_t{5})));
}

TEST(PredicateTest, StringComparisons) {
  EXPECT_TRUE(MatchesPredicate(Value("USA"), CompareOp::kEq, Value("USA")));
  EXPECT_TRUE(
      MatchesPredicate(Value("Baron"), CompareOp::kStartsWith, Value("B")));
  EXPECT_FALSE(
      MatchesPredicate(Value("NBC"), CompareOp::kStartsWith, Value("B")));
  EXPECT_TRUE(MatchesPredicate(Value("abc"), CompareOp::kLt, Value("abd")));
}

TEST(PredicateTest, TypeMismatchNeverMatches) {
  EXPECT_FALSE(MatchesPredicate(Value("7"), CompareOp::kEq, Value(int64_t{7})));
  EXPECT_FALSE(MatchesPredicate(Value(), CompareOp::kEq, Value(int64_t{7})));
  EXPECT_FALSE(
      MatchesPredicate(Value(int64_t{7}), CompareOp::kStartsWith, Value("7")));
}

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : ex_(MakePaperExample()) {}
  PaperExample ex_;
};

TEST_F(EvalTest, QInfOutputsAliceAndBob) {
  auto result = Evaluate(*ex_.db, ex_.q_inf);
  ASSERT_TRUE(result.ok());
  // 2007 + USA movies: Superman, Batman, Spiderman. Actors: Alice (all
  // three), Bob (Superman). David only acted in the 1999 French movie.
  ASSERT_EQ(result->tuples.size(), 2u);
  EXPECT_TRUE(result->index.count({Value("Alice")}));
  EXPECT_TRUE(result->index.count({Value("Bob")}));
}

// Example 2.1: Alice's provenance and lineage.
TEST_F(EvalTest, AliceProvenanceMatchesExample21) {
  auto result = Evaluate(*ex_.db, ex_.q_inf);
  ASSERT_TRUE(result.ok());
  const size_t alice = result->index.at({Value("Alice")});
  const Dnf& prov = result->ProvenanceOf(alice);
  ASSERT_EQ(prov.num_clauses(), 3u);

  std::vector<Clause> want = {
      {ex_.a1, ex_.m1, ex_.c1, ex_.r1},
      {ex_.a1, ex_.m2, ex_.c1, ex_.r2},
      {ex_.a1, ex_.m3, ex_.c2, ex_.r3},
  };
  for (auto& c : want) std::sort(c.begin(), c.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(prov.clauses(), want);

  // Lineage = the 9 distinct facts.
  std::vector<FactId> lineage = result->LineageOf(alice);
  EXPECT_EQ(lineage.size(), 9u);
}

// End-to-end: evaluator provenance + exact Shapley reproduces Example 2.2.
TEST_F(EvalTest, AliceShapleyMatchesExample22) {
  auto result = Evaluate(*ex_.db, ex_.q_inf);
  ASSERT_TRUE(result.ok());
  const size_t alice = result->index.at({Value("Alice")});
  const auto v = ComputeShapleyExact(result->ProvenanceOf(alice)).value();
  EXPECT_NEAR(v.at(ex_.c2), 19.0 / 252.0, 1e-12);
  EXPECT_NEAR(v.at(ex_.c1), 10.0 / 63.0, 1e-12);
}

TEST_F(EvalTest, Q1ProjectsMovieTitles) {
  auto result = Evaluate(*ex_.db, ex_.q_1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tuples.size(), 3u);
  EXPECT_TRUE(result->index.count({Value("Superman")}));
  EXPECT_TRUE(result->index.count({Value("Batman")}));
  EXPECT_TRUE(result->index.count({Value("Spiderman")}));
}

TEST_F(EvalTest, UnionMergesProvenance) {
  Query u = ex_.q_inf;
  u.blocks.push_back(ex_.q_inf.blocks[0]);  // self-union: same provenance
  auto once = Evaluate(*ex_.db, ex_.q_inf);
  auto twice = Evaluate(*ex_.db, u);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok());
  ASSERT_EQ(once->tuples.size(), twice->tuples.size());
  const size_t a1 = once->index.at({Value("Alice")});
  const size_t a2 = twice->index.at({Value("Alice")});
  EXPECT_EQ(once->ProvenanceOf(a1).clauses(),
            twice->ProvenanceOf(a2).clauses());
}

TEST_F(EvalTest, UnionOfDisjointFiltersAddsTuples) {
  // 2007 movies UNION 1999 movies (projection: title).
  SpjBlock b2007;
  b2007.tables = {"movies"};
  b2007.selections = {{{"movies", "year"}, CompareOp::kEq,
                       Value(int64_t{2007})}};
  b2007.projections = {{"movies", "title"}};
  SpjBlock b1999 = b2007;
  b1999.selections[0].literal = Value(int64_t{1999});
  Query u;
  u.id = "u";
  u.blocks = {b2007, b1999};
  auto result = Evaluate(*ex_.db, u);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 4u);
  EXPECT_TRUE(result->index.count({Value("OldFilm")}));
}

TEST_F(EvalTest, EmptyResultIsOk) {
  Query q = ex_.q_inf;
  q.blocks[0].selections[1].literal = Value(int64_t{1800});
  auto result = Evaluate(*ex_.db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());
}

TEST_F(EvalTest, ErrorsOnUnknownTable) {
  Query q = ex_.q_inf;
  q.blocks[0].tables.push_back("nonexistent");
  EXPECT_FALSE(Evaluate(*ex_.db, q).ok());
}

TEST_F(EvalTest, ErrorsOnUnknownColumn) {
  Query q = ex_.q_inf;
  q.blocks[0].selections.push_back(
      {{"movies", "budget"}, CompareOp::kEq, Value(int64_t{1})});
  EXPECT_FALSE(Evaluate(*ex_.db, q).ok());
}

TEST_F(EvalTest, ErrorsOnSelfJoin) {
  Query q = ex_.q_inf;
  q.blocks[0].tables.push_back("movies");
  EXPECT_FALSE(Evaluate(*ex_.db, q).ok());
}

TEST_F(EvalTest, ErrorsOnPredicateOverUnjoinedTable) {
  SpjBlock b;
  b.tables = {"movies"};
  b.projections = {{"movies", "title"}};
  b.selections = {{{"actors", "age"}, CompareOp::kGt, Value(int64_t{20})}};
  Query q;
  q.id = "bad";
  q.blocks = {b};
  EXPECT_FALSE(Evaluate(*ex_.db, q).ok());
}

TEST_F(EvalTest, SingleTableScanWithProjectionDedup) {
  SpjBlock b;
  b.tables = {"movies"};
  b.projections = {{"movies", "year"}};
  Query q;
  q.id = "years";
  q.blocks = {b};
  auto result = Evaluate(*ex_.db, q);
  ASSERT_TRUE(result.ok());
  // Years 2007 (three movies) and 1999 → two distinct tuples, and the 2007
  // tuple's provenance must have three single-fact clauses.
  ASSERT_EQ(result->tuples.size(), 2u);
  const size_t y2007 = result->index.at({Value(int64_t{2007})});
  EXPECT_EQ(result->ProvenanceOf(y2007).num_clauses(), 3u);
  for (const auto& c : result->ProvenanceOf(y2007).clauses()) {
    EXPECT_EQ(c.size(), 1u);
  }
}

// Projection is attributed to its own layer: the join span covers only the
// join loop, so eval.project is a sibling of eval.join under eval.query.
TEST_F(EvalTest, ProjectSpanIsNotNestedInJoinSpan) {
  MetricsRegistry registry;
  auto result =
      Evaluate(*ex_.db, ex_.q_inf, EvalOptions().WithMetrics(&registry));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(registry.SpanAt({"eval.query", "eval.join"}).count, 0u);
  EXPECT_GT(registry.SpanAt({"eval.query", "eval.project"}).count, 0u);
  EXPECT_EQ(
      registry.SpanAt({"eval.query", "eval.join", "eval.project"}).count, 0u);
}

}  // namespace
}  // namespace lshap
