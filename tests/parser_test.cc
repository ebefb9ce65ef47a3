#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/academic.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "paper_fixture.h"
#include "query/generator.h"
#include "query/parser.h"

namespace lshap {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : ex_(MakePaperExample()) {}
  PaperExample ex_;
};

TEST_F(ParserTest, ParsesPaperQuery) {
  const std::string sql =
      "SELECT DISTINCT actors.name FROM movies, actors, companies, roles "
      "WHERE movies.title = roles.movie AND actors.name = roles.actor AND "
      "movies.company = companies.name AND companies.country = 'USA' AND "
      "movies.year = 2007";
  auto q = ParseQuery(*ex_.db, sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->blocks.size(), 1u);
  const SpjBlock& b = q->blocks[0];
  EXPECT_EQ(b.tables.size(), 4u);
  EXPECT_EQ(b.joins.size(), 3u);
  EXPECT_EQ(b.selections.size(), 2u);
  EXPECT_EQ(b.projections.size(), 1u);
  EXPECT_EQ(b.projections[0].ToString(), "actors.name");
  // Parsed query must be semantically identical to the fixture query.
  EXPECT_EQ(Operations(*q), Operations(ex_.q_inf));
}

TEST_F(ParserTest, ParsedQueryEvaluatesSameAsAst) {
  auto parsed = ParseQuery(*ex_.db, ex_.q_inf.ToSql());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto r1 = Evaluate(*ex_.db, ex_.q_inf);
  auto r2 = Evaluate(*ex_.db, *parsed);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->tuples.size(), r2->tuples.size());
  for (const auto& [tuple, idx] : r1->index) {
    auto it = r2->index.find(tuple);
    ASSERT_NE(it, r2->index.end());
    EXPECT_EQ(r1->ProvenanceOf(idx).clauses(),
              r2->ProvenanceOf(it->second).clauses());
  }
}

TEST_F(ParserTest, LikePrefixPattern) {
  auto q = ParseQuery(*ex_.db,
                      "SELECT DISTINCT actors.name FROM actors "
                      "WHERE actors.name LIKE 'B%'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->blocks[0].selections.size(), 1u);
  const Selection& sel = q->blocks[0].selections[0];
  EXPECT_EQ(sel.op, CompareOp::kStartsWith);
  EXPECT_EQ(sel.literal.AsString(), "B");
  auto r = Evaluate(*ex_.db, *q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->tuples.size(), 1u);
  EXPECT_EQ(r->tuples[0][0].AsString(), "Bob");
}

TEST_F(ParserTest, UnionQueries) {
  auto q = ParseQuery(
      *ex_.db,
      "SELECT DISTINCT movies.title FROM movies WHERE movies.year = 2007 "
      "UNION SELECT DISTINCT movies.title FROM movies WHERE movies.year = "
      "1999");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->blocks.size(), 2u);
  auto r = Evaluate(*ex_.db, *q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tuples.size(), 4u);
}

TEST_F(ParserTest, AllComparisonOperators) {
  const char* const conds[] = {
      "actors.age = 30",  "actors.age <> 30", "actors.age != 30",
      "actors.age < 30",  "actors.age <= 30", "actors.age > 30",
      "actors.age >= 30",
  };
  const CompareOp want[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kNe,
                            CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                            CompareOp::kGe};
  for (size_t i = 0; i < std::size(conds); ++i) {
    auto q = ParseQuery(*ex_.db,
                        std::string("SELECT DISTINCT actors.name FROM actors "
                                    "WHERE ") +
                            conds[i]);
    ASSERT_TRUE(q.ok()) << conds[i] << ": " << q.status().ToString();
    EXPECT_EQ(q->blocks[0].selections[0].op, want[i]) << conds[i];
  }
}

TEST_F(ParserTest, StringEscapes) {
  auto q = ParseQuery(*ex_.db,
                      "SELECT DISTINCT movies.title FROM movies "
                      "WHERE movies.title = 'O''Brien'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->blocks[0].selections[0].literal.AsString(), "O'Brien");
  // ToSql doubles the quote again, so its text re-parses to the same query;
  // so does a LIKE prefix with a quote in it.
  EXPECT_NE(q->ToSql().find("'O''Brien'"), std::string::npos) << q->ToSql();
  auto again = ParseQuery(*ex_.db, q->ToSql());
  ASSERT_TRUE(again.ok()) << q->ToSql() << ": " << again.status().ToString();
  EXPECT_EQ(again->blocks[0].selections[0].literal.AsString(), "O'Brien");
  EXPECT_EQ(again->ToSql(), q->ToSql());

  auto like = ParseQuery(*ex_.db,
                         "SELECT DISTINCT movies.title FROM movies "
                         "WHERE movies.title LIKE 'O''%'");
  ASSERT_TRUE(like.ok()) << like.status().ToString();
  EXPECT_EQ(like->blocks[0].selections[0].literal.AsString(), "O'");
  auto like_again = ParseQuery(*ex_.db, like->ToSql());
  ASSERT_TRUE(like_again.ok())
      << like->ToSql() << ": " << like_again.status().ToString();
  EXPECT_EQ(like_again->ToSql(), like->ToSql());
}

// Numbers parse whole and in range, or fail with a Status naming the
// literal: they used to throw std::out_of_range, which ended the process,
// or to parse a prefix ("1.2.3" as 1.2).
TEST_F(ParserTest, NumberLiteralsParseWholeAndInRange) {
  const std::string prefix =
      "SELECT DISTINCT actors.name FROM actors WHERE actors.age = ";
  const struct {
    const char* literal;
    const char* message;
  } kBad[] = {
      {"99999999999999999999", "numeric literal '99999999999999999999' is "
                               "out of range"},
      {"-99999999999999999999", "out of range"},
      {"1e309", "numeric literal '1e309' is out of range"},
      {"1e-400", "numeric literal '1e-400' is out of range"},
      {"1.2.3", "malformed numeric literal '1.2.3'"},
      {"12e5e5", "malformed numeric literal '12e5e5'"},
      {"1e", "malformed numeric literal '1e'"},
  };
  for (const auto& bad : kBad) {
    auto q = ParseQuery(*ex_.db, prefix + bad.literal);
    ASSERT_FALSE(q.ok()) << bad.literal;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(q.status().message().find(bad.message), std::string::npos)
        << q.status().ToString();
  }
  // The int64 extremes and a subnormal double are in range.
  auto lo = ParseQuery(*ex_.db, prefix + "-9223372036854775808");
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  EXPECT_EQ(lo->blocks[0].selections[0].literal.AsInt(), INT64_MIN);
  auto tiny = ParseQuery(*ex_.db, prefix + "1e-320");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ(tiny->blocks[0].selections[0].literal.AsDouble(), 1e-320);
}

// A double literal prints as text that re-parses to the same double, and
// stays a double: %g used to print 29.123456789 as 29.1235, and 3.0 as 3,
// an INT.
TEST_F(ParserTest, DoubleLiteralsRoundTripThroughToSql) {
  const std::string prefix =
      "SELECT DISTINCT actors.name FROM actors WHERE actors.age = ";
  for (const char* literal :
       {"29.123456789", "3.0", "-0.0", "1e-320", "1e+20", "0.1",
        "123456789012345680.0", "1.7976931348623157e308"}) {
    auto q = ParseQuery(*ex_.db, prefix + literal);
    ASSERT_TRUE(q.ok()) << literal << ": " << q.status().ToString();
    const Value& want = q->blocks[0].selections[0].literal;
    ASSERT_TRUE(want.is_double()) << literal;
    auto again = ParseQuery(*ex_.db, q->ToSql());
    ASSERT_TRUE(again.ok()) << q->ToSql() << ": "
                            << again.status().ToString();
    const Value& got = again->blocks[0].selections[0].literal;
    ASSERT_TRUE(got.is_double()) << q->ToSql();
    const double a = want.AsDouble();
    const double b = got.AsDouble();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << literal << " printed as " << q->ToSql();
    EXPECT_EQ(again->ToSql(), q->ToSql());
  }
}

TEST_F(ParserTest, NegativeAndFloatLiterals) {
  auto q = ParseQuery(*ex_.db,
                      "SELECT DISTINCT actors.name FROM actors "
                      "WHERE actors.age > -5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->blocks[0].selections[0].literal.AsInt(), -5);

  auto f = ParseQuery(*ex_.db,
                      "SELECT DISTINCT actors.name FROM actors "
                      "WHERE actors.age > 29.5");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_DOUBLE_EQ(f->blocks[0].selections[0].literal.AsDouble(), 29.5);
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  auto q = ParseQuery(*ex_.db,
                      "select distinct actors.name from actors where "
                      "actors.age > 20");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST_F(ParserTest, ErrorsAreStatuses) {
  // Unknown table.
  EXPECT_FALSE(ParseQuery(*ex_.db, "SELECT DISTINCT foo.bar FROM foo").ok());
  // Unknown column.
  EXPECT_FALSE(
      ParseQuery(*ex_.db, "SELECT DISTINCT actors.height FROM actors").ok());
  // Unqualified column.
  EXPECT_FALSE(ParseQuery(*ex_.db, "SELECT DISTINCT name FROM actors").ok());
  // Missing FROM.
  EXPECT_FALSE(ParseQuery(*ex_.db, "SELECT DISTINCT actors.name").ok());
  // Non-equi column comparison.
  EXPECT_FALSE(ParseQuery(*ex_.db,
                          "SELECT DISTINCT actors.name FROM actors, roles "
                          "WHERE actors.name < roles.actor")
                   .ok());
  // Infix LIKE without prefix pattern.
  EXPECT_FALSE(ParseQuery(*ex_.db,
                          "SELECT DISTINCT actors.name FROM actors WHERE "
                          "actors.name LIKE '%b%'")
                   .ok());
  // Unterminated string.
  EXPECT_FALSE(ParseQuery(*ex_.db,
                          "SELECT DISTINCT actors.name FROM actors WHERE "
                          "actors.name = 'oops")
                   .ok());
  // Trailing garbage.
  EXPECT_FALSE(
      ParseQuery(*ex_.db, "SELECT DISTINCT actors.name FROM actors extra")
          .ok());
}

// The round-trip property: every generator query must survive
// ToSql → ParseQuery with identical semantics (operations and results).
TEST(ParserRoundTripTest, GeneratorQueriesRoundTrip) {
  for (int which = 0; which < 2; ++which) {
    GeneratedDb data =
        which == 0 ? MakeImdbDatabase({}) : MakeAcademicDatabase({});
    QueryGenConfig cfg;
    cfg.union_prob = 0.3;
    QueryGenerator gen(data.db.get(), data.graph, cfg, 555 + which);
    for (int i = 0; i < 60; ++i) {
      const Query q = gen.Generate("rt" + std::to_string(i));
      auto parsed = ParseQuery(*data.db, q.ToSql());
      ASSERT_TRUE(parsed.ok()) << q.ToSql() << "\n"
                               << parsed.status().ToString();
      EXPECT_EQ(parsed->ToSql(), q.ToSql());
      EXPECT_EQ(Operations(*parsed), Operations(q));
    }
  }
}

// One seeded edit of a query's text: a bit flip, a truncation, a deleted
// run, a splice with another query's text, or an inserted '' (an escaped
// quote inside a string literal, an empty string outside one), out-of-range
// number, or 20-digit integer — anywhere, or right after an "= ".
std::string MutateSql(const std::string& sql, const std::string& other,
                      Rng& rng) {
  static const char* const kTokens[] = {"''", "1e309", "-1e309",
                                        "99999999999999999999", "1e-400"};
  std::string out = sql;
  const size_t at = rng.NextBounded(out.size() + 1);
  switch (rng.NextBounded(6)) {
    case 0:
      if (!out.empty()) {
        out[rng.NextBounded(out.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    case 1:
      out.resize(at);
      break;
    case 2:
      out.erase(at, 1 + rng.NextBounded(8));
      break;
    case 3:
      out = out.substr(0, at) + other.substr(rng.NextBounded(other.size()));
      break;
    case 4:
      out.insert(at, kTokens[rng.NextBounded(std::size(kTokens))]);
      break;
    default: {
      const size_t eq = out.find("= ", at);
      const std::string token = kTokens[rng.NextBounded(std::size(kTokens))];
      if (eq != std::string::npos) out.insert(eq + 2, token + " ");
      break;
    }
  }
  return out;
}

// Seeded mutants of generator SQL from both databases: every call returns,
// every failure carries a message, and every success round-trips through
// ToSql to the same query text and operations. tools/check.sh runs it under
// ASan+UBSan.
TEST(ParserMutationTest, SeededMutantsFailCleanlyOrRoundTrip) {
  size_t parsed = 0;
  size_t failed = 0;
  for (int which = 0; which < 2; ++which) {
    GeneratedDb data =
        which == 0 ? MakeImdbDatabase({}) : MakeAcademicDatabase({});
    QueryGenConfig cfg;
    cfg.union_prob = 0.3;
    QueryGenerator gen(data.db.get(), data.graph, cfg, 777 + which);
    std::vector<std::string> sqls;
    for (int i = 0; i < 40; ++i) {
      sqls.push_back(gen.Generate("mut" + std::to_string(i)).ToSql());
    }
    Rng rng(20261019 + which);
    for (int i = 0; i < 1000; ++i) {
      std::string sql = sqls[rng.NextBounded(sqls.size())];
      for (size_t edits = 1 + rng.NextBounded(3); edits > 0; --edits) {
        sql = MutateSql(sql, sqls[rng.NextBounded(sqls.size())], rng);
      }
      SCOPED_TRACE(sql);
      auto q = ParseQuery(*data.db, sql);
      if (!q.ok()) {
        ++failed;
        EXPECT_FALSE(q.status().message().empty());
        continue;
      }
      ++parsed;
      auto again = ParseQuery(*data.db, q->ToSql());
      ASSERT_TRUE(again.ok()) << q->ToSql() << "\n"
                              << again.status().ToString();
      EXPECT_EQ(again->ToSql(), q->ToSql());
      EXPECT_EQ(Operations(*again), Operations(*q));
    }
  }
  // Both outcomes occur, so the sweep reaches past the lexer.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace lshap
