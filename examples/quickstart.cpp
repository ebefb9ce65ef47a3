// Quickstart: build a tiny movie database, run an SPJU query with provenance
// tracking, compute exact Shapley values for an output tuple, and print the
// ranked explanation. This is the paper's running example (Figures 1-2,
// Examples 1.1-2.2) end to end.
#include <cstdio>

#include "eval/evaluator.h"
#include "relational/database.h"
#include "shapley/shapley.h"

using namespace lshap;

int main() {
  // 1. A database of movies, actors, companies and roles.
  Database db("movies_demo");
  (void)db.AddTable(Schema("companies", {{"name", ColumnType::kString},
                                         {"country", ColumnType::kString}}));
  (void)db.AddTable(Schema("actors", {{"name", ColumnType::kString},
                                      {"age", ColumnType::kInt}}));
  (void)db.AddTable(Schema("movies", {{"title", ColumnType::kString},
                                      {"year", ColumnType::kInt},
                                      {"company", ColumnType::kString}}));
  (void)db.AddTable(Schema("roles", {{"movie", ColumnType::kString},
                                     {"actor", ColumnType::kString}}));

  (void)db.Insert("companies", {Value("Universal"), Value("USA")});
  (void)db.Insert("companies", {Value("Warner"), Value("USA")});
  (void)db.Insert("companies", {Value("Gaumont"), Value("France")});
  (void)db.Insert("actors", {Value("Alice"), Value(int64_t{45})});
  (void)db.Insert("actors", {Value("Bob"), Value(int64_t{30})});
  (void)db.Insert("movies",
                  {Value("Superman"), Value(int64_t{2007}), Value("Universal")});
  (void)db.Insert("movies",
                  {Value("Batman"), Value(int64_t{2007}), Value("Universal")});
  (void)db.Insert("movies",
                  {Value("Spiderman"), Value(int64_t{2007}), Value("Warner")});
  (void)db.Insert("roles", {Value("Superman"), Value("Alice")});
  (void)db.Insert("roles", {Value("Batman"), Value("Alice")});
  (void)db.Insert("roles", {Value("Spiderman"), Value("Alice")});
  (void)db.Insert("roles", {Value("Superman"), Value("Bob")});

  // 2. q_inf: actors of 2007 movies produced by American companies.
  SpjBlock block;
  block.tables = {"movies", "actors", "companies", "roles"};
  block.joins = {
      {{"movies", "title"}, {"roles", "movie"}},
      {{"actors", "name"}, {"roles", "actor"}},
      {{"movies", "company"}, {"companies", "name"}},
  };
  block.selections = {
      {{"companies", "country"}, CompareOp::kEq, Value("USA")},
      {{"movies", "year"}, CompareOp::kEq, Value(int64_t{2007})},
  };
  block.projections = {{"actors", "name"}};
  Query q;
  q.id = "q_inf";
  q.blocks = {block};

  std::printf("Query:\n  %s\n\n", q.ToSql().c_str());

  // 3. Evaluate with provenance tracking.
  auto result = Evaluate(db, q);
  if (!result.ok()) {
    std::printf("evaluation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Results (%zu tuples):\n", result->tuples.size());
  for (const auto& t : result->tuples) {
    std::printf("  %s\n", OutputTupleToString(t).c_str());
  }

  // 4. Exact Shapley explanation of the tuple "Alice".
  const size_t alice = result->index.at({Value("Alice")});
  const Dnf& prov = result->ProvenanceOf(alice);
  std::printf("\nProvenance of (Alice): %s\n", prov.ToString().c_str());

  const ShapleyValues values = ComputeShapleyExact(prov).value();
  std::printf("\nFacts ranked by Shapley contribution to (Alice):\n");
  int rank = 1;
  for (FactId f : RankByScore(values)) {
    std::printf("  %2d. %-36s %.6f\n", rank++, db.FactToString(f).c_str(),
                values.at(f));
  }
  return 0;
}
