#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "datasets/academic.h"
#include "datasets/imdb.h"
#include "paper_fixture.h"
#include "query/ast.h"
#include "query/generator.h"

namespace lshap {
namespace {

TEST(AstTest, SelectionToSql) {
  Selection s{{"movies", "year"}, CompareOp::kEq, Value(int64_t{2007})};
  EXPECT_EQ(s.ToSql(), "movies.year = 2007");
  Selection str{{"companies", "country"}, CompareOp::kEq, Value("USA")};
  EXPECT_EQ(str.ToSql(), "companies.country = 'USA'");
  Selection like{{"actors", "name"}, CompareOp::kStartsWith, Value("B")};
  EXPECT_EQ(like.ToSql(), "actors.name LIKE 'B%'");
}

TEST(AstTest, JoinNormalization) {
  JoinPred a{{"roles", "movie"}, {"movies", "title"}};
  a.Normalize();
  EXPECT_EQ(a.left.table, "movies");
  JoinPred b{{"movies", "title"}, {"roles", "movie"}};
  b.Normalize();
  EXPECT_EQ(a.ToSql(), b.ToSql());
}

TEST(AstTest, QueryToSqlShape) {
  PaperExample ex = MakePaperExample();
  const std::string sql = ex.q_inf.ToSql();
  EXPECT_NE(sql.find("SELECT DISTINCT actors.name"), std::string::npos);
  EXPECT_NE(sql.find("FROM movies, actors, companies, roles"),
            std::string::npos);
  EXPECT_NE(sql.find("companies.country = 'USA'"), std::string::npos);
  EXPECT_NE(sql.find("movies.year = 2007"), std::string::npos);
}

TEST(AstTest, NumTablesCountsDistinct) {
  PaperExample ex = MakePaperExample();
  EXPECT_EQ(ex.q_inf.NumTables(), 4u);
  Query u = ex.q_inf;
  u.blocks.push_back(ex.q_1.blocks[0]);
  EXPECT_EQ(u.NumTables(), 4u);  // same tables in both blocks
}

// Example 2.3: q_inf and q_1 differ in projection plus one extra selection;
// 5 shared operations out of 8 total.
TEST(AstTest, OperationsMatchPaperExample) {
  PaperExample ex = MakePaperExample();
  const auto ops_inf = Operations(ex.q_inf);
  const auto ops_1 = Operations(ex.q_1);
  EXPECT_EQ(ops_inf.size(), 6u);  // 1 proj + 3 joins + 2 selections
  EXPECT_EQ(ops_1.size(), 7u);    // 1 proj + 3 joins + 3 selections
  std::set<std::string> inter;
  for (const auto& op : ops_inf) {
    if (ops_1.count(op) > 0) inter.insert(op);
  }
  EXPECT_EQ(inter.size(), 5u);  // joins + the two shared selections
}

TEST(AstTest, UnionOperationsAreUnioned) {
  PaperExample ex = MakePaperExample();
  Query u = ex.q_inf;
  u.blocks.push_back(ex.q_1.blocks[0]);
  const auto ops = Operations(u);
  // Union of the 6 and 7 op sets sharing 5 → 8 distinct operations.
  EXPECT_EQ(ops.size(), 8u);
}

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest()
      : data_(MakeImdbDatabase({})),
        gen_(data_.db.get(), data_.graph, QueryGenConfig{}, 99) {}
  GeneratedDb data_;
  QueryGenerator gen_;
};

TEST_F(GeneratorTest, GeneratesValidBlocks) {
  for (int i = 0; i < 50; ++i) {
    Query q = gen_.Generate("q" + std::to_string(i));
    ASSERT_FALSE(q.blocks.empty());
    for (const auto& b : q.blocks) {
      EXPECT_FALSE(b.tables.empty());
      EXPECT_FALSE(b.projections.empty());
      // Joins must connect the selected tables (tables - 1 joins at least
      // when connected growth succeeded).
      if (b.tables.size() > 1) {
        EXPECT_GE(b.joins.size(), b.tables.size() - 1);
      }
      // Every join endpoint must reference a FROM table.
      std::set<std::string> from(b.tables.begin(), b.tables.end());
      for (const auto& j : b.joins) {
        EXPECT_TRUE(from.count(j.left.table));
        EXPECT_TRUE(from.count(j.right.table));
      }
      for (const auto& s : b.selections) {
        EXPECT_TRUE(from.count(s.column.table));
      }
      for (const auto& p : b.projections) {
        EXPECT_TRUE(from.count(p.table));
      }
    }
  }
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  QueryGenerator a(data_.db.get(), data_.graph, QueryGenConfig{}, 7);
  QueryGenerator b(data_.db.get(), data_.graph, QueryGenConfig{}, 7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Generate("q").ToSql(), b.Generate("q").ToSql());
  }
}

TEST_F(GeneratorTest, MutateChangesSomething) {
  Query base = gen_.Generate("base");
  int changed = 0;
  for (int i = 0; i < 20; ++i) {
    Query m = gen_.Mutate(base, std::string("m").append(std::to_string(i)));
    if (m.ToSql() != base.ToSql()) ++changed;
  }
  EXPECT_GT(changed, 10);
}

TEST_F(GeneratorTest, LogHasUniqueSqlAndIds) {
  const auto log = gen_.GenerateLog(30, "imdb");
  EXPECT_GT(log.size(), 30u);  // variants inflate the log
  std::unordered_set<std::string> sql;
  std::unordered_set<std::string> ids;
  for (const auto& q : log) {
    EXPECT_TRUE(sql.insert(q.ToSql()).second) << q.ToSql();
    EXPECT_TRUE(ids.insert(q.id).second) << q.id;
  }
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t LogFingerprint(const std::vector<Query>& log) {
  uint64_t h = 14695981039346656037ull;
  for (const Query& q : log) {
    h = Fnv1a(h, q.id);
    h = Fnv1a(h, q.ToSql());
  }
  return h;
}

// The default QueryGenConfig must reproduce historical corpora bit-for-bit:
// these fingerprints were recorded against the pre-PR-4 generator (before
// string_order_prob/string_prefix_prob existed) over the default IMDB and
// Academic databases. If either changes, a generator edit perturbed the RNG
// stream of existing logs — every recorded BENCH_* number and the corpus
// ground truth would silently shift.
TEST(GeneratorPinTest, DefaultConfigReproducesHistoricalLogs) {
  {
    GeneratedDb data = MakeImdbDatabase(ImdbConfig{});
    QueryGenerator gen(data.db.get(), data.graph, QueryGenConfig{}, 4242);
    const auto log = gen.GenerateLog(25, "pin");
    EXPECT_EQ(log.size(), 68u);
    EXPECT_EQ(LogFingerprint(log), 8010808381602465292ull);
  }
  {
    GeneratedDb data = MakeAcademicDatabase(AcademicConfig{});
    QueryGenerator gen(data.db.get(), data.graph, QueryGenConfig{}, 777);
    const auto log = gen.GenerateLog(25, "pin");
    EXPECT_EQ(log.size(), 66u);
    EXPECT_EQ(LogFingerprint(log), 12802659380387097211ull);
  }
}

// The opt-in knobs actually emit the new predicate classes, and only on
// string columns.
TEST(GeneratorPinTest, OrderKnobEmitsOrderedStringSelections) {
  GeneratedDb data = MakeImdbDatabase(ImdbConfig{});
  QueryGenConfig cfg;
  cfg.string_order_prob = 0.6;
  cfg.string_prefix_prob = 0.2;
  QueryGenerator gen(data.db.get(), data.graph, cfg, 11);
  size_t ordered = 0;
  size_t prefix = 0;
  for (int i = 0; i < 60; ++i) {
    const Query q = gen.Generate(std::string("k").append(std::to_string(i)));
    for (const auto& block : q.blocks) {
      for (const auto& sel : block.selections) {
        const bool is_order =
            sel.op == CompareOp::kLt || sel.op == CompareOp::kLe ||
            sel.op == CompareOp::kGt || sel.op == CompareOp::kGe;
        if (sel.literal.is_string()) {
          ordered += is_order ? 1 : 0;
          prefix += sel.op == CompareOp::kStartsWith ? 1 : 0;
        } else {
          // Numeric order selections existed before the knobs; string ones
          // must carry string literals.
          EXPECT_NE(sel.op, CompareOp::kStartsWith);
        }
      }
    }
  }
  EXPECT_GT(ordered, 20u);
  EXPECT_GT(prefix, 5u);
}

}  // namespace
}  // namespace lshap
