// Contribution auditing on the Academic database: for a fixed analyst query
// ("domains of conferences with highly cited recent publications"), rank
// which database facts drive each answer, comparing the exact engine, the
// CNF proxy and a Monte-Carlo estimate — the three engines a practitioner
// can choose between before reaching for the learned model.
#include <cstdio>

#include "common/rng.h"
#include "datasets/academic.h"
#include "eval/evaluator.h"
#include "metrics/ranking_metrics.h"
#include "shapley/shapley.h"

using namespace lshap;

int main() {
  GeneratedDb data = MakeAcademicDatabase({});
  const Database& db = *data.db;

  // Domains of conferences that published post-2015 papers with >150
  // citations (echoes Figure 8(a) of the paper).
  SpjBlock block;
  block.tables = {"publication", "conference", "domain_conference", "domain"};
  block.joins = {
      {{"publication", "cid"}, {"conference", "cid"}},
      {{"domain_conference", "cid"}, {"conference", "cid"}},
      {{"domain_conference", "did"}, {"domain", "did"}},
  };
  block.selections = {
      {{"publication", "year"}, CompareOp::kGt, Value(int64_t{2015})},
      {{"publication", "citations"}, CompareOp::kGt, Value(int64_t{150})},
  };
  block.projections = {{"domain", "name"}};
  Query q;
  q.id = "audit";
  q.blocks = {block};

  std::printf("Audit query:\n  %s\n\n", q.ToSql().c_str());
  auto result = Evaluate(db, q);
  if (!result.ok()) {
    std::printf("evaluation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu answer domains.\n\n", result->tuples.size());

  Rng rng(2024);
  const size_t show = std::min<size_t>(3, result->tuples.size());
  for (size_t i = 0; i < show; ++i) {
    const Dnf& prov = result->ProvenanceOf(i);
    const ShapleyValues exact = ComputeShapleyExact(prov).value();
    const ShapleyValues proxy = ComputeCnfProxy(prov).value();
    const ShapleyValues mc =
        ComputeShapleyMonteCarlo(prov, 4000, rng).value();

    std::printf("Answer %s  (lineage %zu facts)\n",
                OutputTupleToString(result->tuples[i]).c_str(), exact.size());
    const auto gold_rank = RankByScore(exact);
    std::printf("  top contributing facts (exact):\n");
    for (size_t r = 0; r < gold_rank.size() && r < 5; ++r) {
      std::printf("    %zu. %-60s %.4f\n", r + 1,
                  db.FactToString(gold_rank[r]).c_str(),
                  exact.at(gold_rank[r]));
    }
    std::printf("  agreement with exact ranking:  cnf-proxy NDCG@10 %.3f | "
                "monte-carlo NDCG@10 %.3f\n\n",
                NdcgAtK(RankByScore(proxy), exact, 10),
                NdcgAtK(RankByScore(mc), exact, 10));
  }
  return 0;
}
