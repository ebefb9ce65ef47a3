// Table 5: qualitative example — a test query whose lineage contains facts
// never seen during training, with LearnShapley's predicted rank vs. the
// true rank, marking the unseen facts.
#include <cstdio>

#include "bench_common.h"
#include "learnshapley/trainer.h"
#include "shapley/shapley.h"

using namespace lshap;
using namespace lshap::bench;

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Table 5: ranking a lineage containing unseen facts (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);
  const Corpus& corpus = wb.corpus;

  TrainConfig cfg;
  cfg.pretrain_epochs = 3;
  cfg.pretrain_pairs_per_epoch = 512;
  cfg.finetune_epochs = 4;
  cfg.finetune_samples_per_epoch = 2048;
  cfg.seed = 500;
  TrainResult trained = TrainLearnShapley(corpus, wb.sims, cfg, pool);
  const auto seen = TrainSeenFacts(corpus);

  // Pick the test contribution with a small-to-medium lineage containing at
  // least one unseen fact (for a readable table). Prefer lineages of ≥ 4
  // facts, but accept any lineage with an unseen fact over one without.
  size_t best_e = corpus.test_idx[0];
  size_t best_c = 0;
  size_t best_size = static_cast<size_t>(-1);
  bool best_has_unseen = false;
  for (size_t e : corpus.test_idx) {
    const auto& contribs = corpus.entries[e].contributions;
    for (size_t c = 0; c < contribs.size(); ++c) {
      const auto& gold = contribs[c].shapley;
      size_t unseen = 0;
      for (const auto& [f, v] : gold) {
        if (seen.count(f) == 0) ++unseen;
      }
      if (unseen == 0) continue;
      const bool preferred = gold.size() >= 4;
      const bool current_preferred = best_has_unseen && best_size >= 4;
      if (!best_has_unseen || (preferred && !current_preferred) ||
          (preferred == current_preferred && gold.size() < best_size)) {
        best_size = gold.size();
        best_e = e;
        best_c = c;
        best_has_unseen = true;
      }
    }
  }
  if (!best_has_unseen) {
    std::printf("\n(no test lineage contains unseen facts at this log "
                "scale; showing the first test pair)\n");
  }

  const CorpusEntry& entry = corpus.entries[best_e];
  const TupleContribution& contrib = entry.contributions[best_c];
  std::printf("\nQuery: %s\n", entry.query.ToSql().c_str());
  std::printf("Output tuple: %s\n\n",
              OutputTupleToString(contrib.tuple).c_str());

  const ShapleyValues predicted =
      trained.ranker->Score(corpus, best_e, best_c);
  const std::vector<FactId> pred_rank = RankByScore(predicted);
  const std::vector<FactId> gold_rank = RankByScore(contrib.shapley);

  std::printf("%-10s %-10s %-8s %s\n", "pred-rank", "true-rank", "unseen",
              "fact");
  for (size_t g = 0; g < gold_rank.size(); ++g) {
    const FactId f = gold_rank[g];
    size_t pred_pos = 0;
    for (size_t p = 0; p < pred_rank.size(); ++p) {
      if (pred_rank[p] == f) pred_pos = p + 1;
    }
    std::printf("%-10zu %-10zu %-8s %s\n", pred_pos, g + 1,
                seen.count(f) == 0 ? "*NEW*" : "",
                corpus.db->FactToString(f).c_str());
  }
  std::printf("\n(*NEW* marks facts absent from every training lineage; the "
              "Nearest Queries\nbaseline necessarily scores them 0 and ranks "
              "them last in arbitrary order.)\n");
  return 0;
}
