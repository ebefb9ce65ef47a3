#include "datasets/academic.h"

#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace lshap {

namespace {

const char* const kOrgStems[] = {
    "University of California San Diego",
    "University of Michigan",
    "Tel Aviv University",
    "ETH Zurich",
    "MIT",
    "Stanford University",
    "Tsinghua University",
    "University of Tokyo",
    "Oxford University",
    "TU Munich",
};

const char* const kDomainNames[] = {
    "Software Engineering", "Databases",       "Machine Learning",
    "Computer Networks",    "Security",        "Theory",
    "Graphics",             "Systems",         "HCI",
    "Bioinformatics",       "Robotics",        "Compilers",
};

const char* const kConfStems[] = {
    "SIGMOD", "VLDB",  "ICDE", "EDBT",  "PODS", "CAV",  "ISSRE",
    "NeurIPS", "ICML", "KDD",  "WWW",   "OSDI", "SOSP", "CCS",
};

const char* const kPaperAdjectives[] = {
    "Efficient", "Scalable", "Robust",    "Adaptive", "Incremental",
    "Parallel",  "Learned",  "Declarative", "Unified", "Provenance-Aware",
};

const char* const kPaperNouns[] = {
    "Query Processing",  "Fact Attribution",   "Index Structures",
    "Stream Processing", "Data Cleaning",      "View Maintenance",
    "Model Training",    "Graph Analytics",    "Consensus Protocols",
    "Access Control",
};

const char* const kAuthorFirst[] = {
    "Dana", "Daniel", "Nave",  "Maya",  "Omer", "Yael", "Amir",
    "Noa",  "Eli",    "Tamar", "Gil",   "Rona", "Adi",  "Ben",
};

const char* const kAuthorLast[] = {
    "Arad",    "Deutch", "Frost",  "Levi",   "Cohen", "Mizrahi",
    "Peretz",  "Biton",  "Avital", "Shaked", "Golan", "Navon",
};

}  // namespace

GeneratedDb MakeAcademicDatabase(const AcademicConfig& config) {
  Rng rng(config.seed);
  auto db = std::make_unique<Database>("academic");
  LSHAP_CHECK(config.null_prob >= 0.0 && config.null_prob <= 1.0);
  // Guarded null draw (see AcademicConfig::null_prob): at the default of 0
  // this never touches the RNG, preserving the pre-null draw interleaving.
  const auto draw_null = [&rng, &config]() {
    return config.null_prob > 0.0 && rng.NextDouble() < config.null_prob;
  };

  LSHAP_CHECK(db->AddTable(Schema("organization",
                                  {{"id", ColumnType::kInt},
                                   {"name", ColumnType::kString}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("author",
                                  {{"id", ColumnType::kInt},
                                   {"name", ColumnType::kString},
                                   {"org_id", ColumnType::kInt},
                                   {"paper_count", ColumnType::kInt},
                                   {"citation_count", ColumnType::kInt}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("publication",
                                  {{"pid", ColumnType::kInt},
                                   {"title", ColumnType::kString},
                                   {"year", ColumnType::kInt},
                                   {"cid", ColumnType::kInt},
                                   {"citations", ColumnType::kInt}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("writes",
                                  {{"author_id", ColumnType::kInt},
                                   {"pub_id", ColumnType::kInt}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("conference",
                                  {{"cid", ColumnType::kInt},
                                   {"name", ColumnType::kString}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("domain",
                                  {{"did", ColumnType::kInt},
                                   {"name", ColumnType::kString}}))
                  .ok());
  LSHAP_CHECK(db->AddTable(Schema("domain_conference",
                                  {{"cid", ColumnType::kInt},
                                   {"did", ColumnType::kInt}}))
                  .ok());

  // Organizations. Every table is staged into a RowBatch and committed in
  // one Database::Append (see relational/table.h); the RNG-driven tables
  // below keep their per-row draw order that way.
  {
    RowBatch batch = db->BatchFor("organization");
    for (size_t i = 0; i < config.num_organizations; ++i) {
      std::string name = kOrgStems[i % std::size(kOrgStems)];
      if (i >= std::size(kOrgStems)) {
        name += StrFormat(" Campus %zu", i / std::size(kOrgStems) + 1);
      }
      batch.Begin().Int(static_cast<int64_t>(i)).Str(name).End();
    }
    db->Append(batch);
  }

  // Authors.
  {
    RowBatch batch = db->BatchFor("author");
    for (size_t i = 0; i < config.num_authors; ++i) {
      std::string name =
          std::string(kAuthorFirst[rng.NextBounded(std::size(kAuthorFirst))]) +
          " " + kAuthorLast[rng.NextBounded(std::size(kAuthorLast))] +
          StrFormat(" #%zu", i);
      const int64_t org =
          static_cast<int64_t>(rng.NextBounded(config.num_organizations));
      const int64_t papers = rng.NextInt(1, 160);
      const int64_t citations = papers * rng.NextInt(2, 90);
      batch.Begin().Int(static_cast<int64_t>(i)).Str(name).Int(org);
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Int(papers);
      }
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Int(citations);
      }
      batch.End();
    }
    db->Append(batch);
  }

  // Conferences, domains and their many-to-many bridge.
  {
    RowBatch batch = db->BatchFor("conference");
    for (size_t i = 0; i < config.num_conferences; ++i) {
      std::string name = kConfStems[i % std::size(kConfStems)];
      if (i >= std::size(kConfStems)) {
        name += StrFormat(" Workshop %zu", i / std::size(kConfStems));
      }
      batch.Begin().Int(static_cast<int64_t>(i)).Str(name).End();
    }
    db->Append(batch);
  }
  {
    RowBatch batch = db->BatchFor("domain");
    for (size_t i = 0; i < config.num_domains; ++i) {
      batch.Begin()
          .Int(static_cast<int64_t>(i))
          .Str(kDomainNames[i % std::size(kDomainNames)])
          .End();
    }
    db->Append(batch);
  }
  {
    RowBatch batch = db->BatchFor("domain_conference");
    std::unordered_set<uint64_t> seen;
    size_t attempts = 0;
    while (batch.num_rows() < config.num_domain_conference &&
           attempts < config.num_domain_conference * 20) {
      ++attempts;
      const uint64_t cid = rng.NextBounded(config.num_conferences);
      const uint64_t did = rng.NextBounded(config.num_domains);
      if (!seen.insert(cid * 1000 + did).second) continue;
      batch.Begin()
          .Int(static_cast<int64_t>(cid))
          .Int(static_cast<int64_t>(did))
          .End();
    }
    db->Append(batch);
  }

  // Publications, with Zipf-skewed conference popularity.
  ZipfSampler conf_sampler(config.num_conferences, config.conference_zipf);
  {
    RowBatch batch = db->BatchFor("publication");
    for (size_t i = 0; i < config.num_publications; ++i) {
      std::string title =
          std::string(
              kPaperAdjectives[rng.NextBounded(std::size(kPaperAdjectives))]) +
          " " + kPaperNouns[rng.NextBounded(std::size(kPaperNouns))] +
          StrFormat(" v%zu", i);
      const int64_t year = rng.NextInt(2000, 2023);
      const int64_t cid = static_cast<int64_t>(conf_sampler.Sample(rng));
      const int64_t citations = rng.NextInt(0, 400);
      batch.Begin().Int(static_cast<int64_t>(i)).Str(title);
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Int(year);
      }
      batch.Int(cid);
      if (draw_null()) {
        batch.Null();
      } else {
        batch.Int(citations);
      }
      batch.End();
    }
    db->Append(batch);
  }

  // Authorship, with Zipf-skewed author productivity.
  ZipfSampler author_sampler(config.num_authors, config.author_zipf);
  {
    RowBatch batch = db->BatchFor("writes");
    std::unordered_set<uint64_t> seen;
    size_t attempts = 0;
    while (batch.num_rows() < config.num_writes &&
           attempts < config.num_writes * 10) {
      ++attempts;
      const uint64_t author = author_sampler.Sample(rng);
      const uint64_t pub = rng.NextBounded(config.num_publications);
      if (!seen.insert(author * 1000000 + pub).second) continue;
      batch.Begin()
          .Int(static_cast<int64_t>(author))
          .Int(static_cast<int64_t>(pub))
          .End();
    }
    db->Append(batch);
  }

  // Ingest is complete: freeze the dictionary so ordered/prefix string
  // predicates evaluate over lexicographic ranks instead of text.
  db->FreezeStringOrder();

  SchemaGraph graph;
  graph.tables = {"organization", "author",    "publication", "writes",
                  "conference",   "domain",    "domain_conference"};
  graph.edges = {
      {{"author", "org_id"}, {"organization", "id"}},
      {{"writes", "author_id"}, {"author", "id"}},
      {{"writes", "pub_id"}, {"publication", "pid"}},
      {{"publication", "cid"}, {"conference", "cid"}},
      {{"domain_conference", "cid"}, {"conference", "cid"}},
      {{"domain_conference", "did"}, {"domain", "did"}},
  };
  return {std::move(db), std::move(graph)};
}

}  // namespace lshap
