// Interactive-style CLI: pass any SPJU SQL query over the synthetic IMDB
// database on the command line; the engine parses it, evaluates it with
// provenance, and prints the exact Shapley explanation of each answer.
//
//   ./explain_sql "SELECT DISTINCT actors.name FROM actors, roles
//                  WHERE actors.name = roles.actor AND actors.age > 50"
#include <cstdio>

#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "query/parser.h"
#include "shapley/shapley.h"

using namespace lshap;

int main(int argc, char** argv) {
  GeneratedDb data = MakeImdbDatabase({});
  const Database& db = *data.db;

  std::string sql;
  if (argc > 1) {
    sql = argv[1];
  } else {
    sql =
        "SELECT DISTINCT companies.name FROM companies, movies, roles "
        "WHERE movies.company = companies.name AND "
        "movies.title = roles.movie AND movies.year > 2015";
    std::printf("(no query given; using a demo query)\n");
  }
  std::printf("Schema: companies(name, country), actors(name, age),\n"
              "        movies(title, year, company), roles(movie, actor)\n\n");

  auto query = ParseQuery(db, sql, "cli");
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("Parsed: %s\n\n", query->ToSql().c_str());

  auto result = Evaluate(db, *query);
  if (!result.ok()) {
    std::printf("evaluation error: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  if (result->tuples.empty()) {
    std::printf("(empty result)\n");
    return 0;
  }

  const size_t show = std::min<size_t>(5, result->tuples.size());
  std::printf("%zu answers; explaining the first %zu:\n\n",
              result->tuples.size(), show);
  for (size_t i = 0; i < show; ++i) {
    const Dnf& prov = result->ProvenanceOf(i);
    const ShapleyValues values = ComputeShapleyExact(prov).value();
    std::printf("%s   (%zu derivations, %zu lineage facts)\n",
                OutputTupleToString(result->tuples[i]).c_str(),
                prov.num_clauses(), values.size());
    const auto ranking = RankByScore(values);
    for (size_t r = 0; r < ranking.size() && r < 4; ++r) {
      std::printf("   %zu. %-44s %.4f\n", r + 1,
                  db.FactToString(ranking[r]).c_str(), values.at(ranking[r]));
    }
    std::printf("\n");
  }
  return 0;
}
