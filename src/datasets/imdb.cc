#include "datasets/imdb.h"

#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace lshap {

namespace {

const char* const kCompanyStems[] = {
    "Universal", "Warner",  "Paramount", "Columbia", "Fox",
    "Lionsgate", "Miramax", "NewLine",   "Orion",    "Gaumont",
    "Studio",    "Castle",  "Summit",    "Vertigo",  "Apex",
};

const char* const kCountries[] = {"USA", "USA", "USA", "UK",
                                  "France", "Germany", "Canada"};

const char* const kTitleAdjectives[] = {
    "Dark",  "Silent", "Golden", "Lost",   "Final", "Hidden",
    "Iron",  "Last",   "Broken", "Crimson", "Frozen", "Wild",
};

const char* const kTitleNouns[] = {
    "Empire", "Horizon", "Garden", "Witness", "Signal", "Harbor",
    "Engine", "Mirror",  "Island", "Canyon",  "Letter", "Voyage",
};

const char* const kFirstNames[] = {
    "Alice", "Bob",   "Carol", "David", "Erin",  "Frank", "Grace",
    "Heidi", "Ivan",  "Judy",  "Karl",  "Laura", "Mike",  "Nina",
    "Oscar", "Peggy", "Quinn", "Rita",  "Sam",   "Tina",
};

const char* const kLastNames[] = {
    "Smith", "Jones", "Brown", "Davis", "Miller", "Wilson", "Moore",
    "Clark", "Lewis", "Walker", "Young", "King",   "Baron",  "Hale",
};

}  // namespace

GeneratedDb MakeImdbDatabase(const ImdbConfig& config) {
  Rng rng(config.seed);
  auto db = std::make_unique<Database>("imdb");
  LSHAP_CHECK(config.null_prob >= 0.0 && config.null_prob <= 1.0);
  // Guarded null draw (see ImdbConfig::null_prob): at the default of 0 this
  // never touches the RNG, so the draw interleaving — and therefore every
  // generated cell — matches the pre-null generator exactly.
  const auto draw_null = [&rng, &config]() {
    return config.null_prob > 0.0 && rng.NextDouble() < config.null_prob;
  };

  LSHAP_CHECK(db->AddTable(Schema("companies",
                                  {{"name", ColumnType::kString},
                                   {"country", ColumnType::kString}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("actors", {{"name", ColumnType::kString},
                                             {"age", ColumnType::kInt}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("movies",
                                  {{"title", ColumnType::kString},
                                   {"year", ColumnType::kInt},
                                   {"company", ColumnType::kString}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("roles", {{"movie", ColumnType::kString},
                                            {"actor", ColumnType::kString}}))
                  .ok());

  // Companies. Each table is staged into a RowBatch and committed in one
  // Database::Append (see relational/table.h). The RNG draws stay
  // interleaved exactly as the old row-at-a-time loops made them, so
  // generated content is unchanged.
  std::vector<std::string> company_names;
  company_names.reserve(config.num_companies);
  constexpr size_t kNumStems = std::size(kCompanyStems);
  {
    RowBatch batch = db->BatchFor("companies");
    for (size_t i = 0; i < config.num_companies; ++i) {
      std::string name = kCompanyStems[i % kNumStems];
      if (i >= kNumStems) name += StrFormat(" %zu", i / kNumStems + 1);
      batch.Begin().Str(name);
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Str(kCountries[rng.NextBounded(std::size(kCountries))]);
      }
      batch.End();
      company_names.push_back(std::move(name));
    }
    db->Append(batch);
  }

  // Actors.
  std::vector<std::string> actor_names;
  actor_names.reserve(config.num_actors);
  {
    RowBatch batch = db->BatchFor("actors");
    for (size_t i = 0; i < config.num_actors; ++i) {
      std::string name =
          std::string(kFirstNames[rng.NextBounded(std::size(kFirstNames))]) +
          " " + kLastNames[rng.NextBounded(std::size(kLastNames))];
      name += StrFormat(" #%zu", i);  // ensure uniqueness
      batch.Begin().Str(name);
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Int(rng.NextInt(18, 80));
      }
      batch.End();
      actor_names.push_back(std::move(name));
    }
    db->Append(batch);
  }

  // Movies, with Zipf-skewed company popularity.
  ZipfSampler company_sampler(config.num_companies, config.company_zipf);
  std::vector<std::string> movie_titles;
  movie_titles.reserve(config.num_movies);
  {
    RowBatch batch = db->BatchFor("movies");
    for (size_t i = 0; i < config.num_movies; ++i) {
      std::string title =
          std::string(
              kTitleAdjectives[rng.NextBounded(std::size(kTitleAdjectives))]) +
          " " + kTitleNouns[rng.NextBounded(std::size(kTitleNouns))];
      title += StrFormat(" (%zu)", i);  // ensure uniqueness
      const bool year_null = draw_null();
      const int64_t year = year_null ? 0 : rng.NextInt(1990, 2023);
      const std::string& company = company_names[company_sampler.Sample(rng)];
      batch.Begin().Str(title);
      if (year_null) {
        batch.Null();
      } else {
        batch.Int(year);
      }
      batch.Str(company).End();
      movie_titles.push_back(std::move(title));
    }
    db->Append(batch);
  }

  // Roles, with Zipf-skewed actor popularity; duplicates are skipped.
  ZipfSampler actor_sampler(config.num_actors, config.actor_zipf);
  std::unordered_set<std::string> seen_roles;
  {
    RowBatch batch = db->BatchFor("roles");
    size_t attempts = 0;
    while (batch.num_rows() < config.num_roles &&
           attempts < config.num_roles * 10) {
      ++attempts;
      const std::string& movie =
          movie_titles[rng.NextBounded(movie_titles.size())];
      const std::string& actor = actor_names[actor_sampler.Sample(rng)];
      if (!seen_roles.insert(movie + "\x1f" + actor).second) continue;
      batch.Begin().Str(movie).Str(actor).End();
    }
    db->Append(batch);
  }

  // Ingest is complete: freeze the dictionary so ordered/prefix string
  // predicates evaluate over lexicographic ranks instead of text.
  db->FreezeStringOrder();

  SchemaGraph graph;
  graph.tables = {"companies", "actors", "movies", "roles"};
  graph.edges = {
      {{"movies", "title"}, {"roles", "movie"}},
      {{"actors", "name"}, {"roles", "actor"}},
      {{"movies", "company"}, {"companies", "name"}},
  };
  return {std::move(db), std::move(graph)};
}

}  // namespace lshap
