// Extension experiment (the paper's Limitations / future work): ranking an
// ARBITRARY candidate fact set — lineage facts mixed with random database
// facts — which the paper's positive-only training cannot handle. We train
// LearnShapley-base with and without zero-target negative sampling and
// measure:
//   separation AUC: P(score(lineage fact) > score(random non-lineage fact))
//   NDCG@10 over the mixed candidate set (non-lineage facts have gold 0).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "learnshapley/trainer.h"
#include "metrics/ranking_metrics.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

struct ExtResult {
  double auc = 0.0;
  double ndcg = 0.0;
};

ExtResult Measure(LearnShapleyRanker& ranker, const Corpus& corpus) {
  Rng rng(4242);
  double auc_sum = 0.0;
  size_t auc_pairs = 0;
  std::vector<double> ndcgs;
  for (size_t e : corpus.test_idx) {
    const CorpusEntry& entry = corpus.entries[e];
    for (const auto& contrib : entry.contributions) {
      // Candidate set: lineage + equally many random non-lineage facts.
      std::vector<FactId> candidates;
      ShapleyValues gold;
      for (const auto& [f, v] : contrib.shapley) {
        candidates.push_back(f);
        gold[f] = v;
      }
      const size_t num_neg = candidates.size();
      for (size_t i = 0; i < num_neg; ++i) {
        const FactId f =
            static_cast<FactId>(rng.NextBounded(corpus.db->num_facts()));
        if (contrib.shapley.count(f) > 0 || gold.count(f) > 0) continue;
        candidates.push_back(f);
        gold[f] = 0.0;
      }
      const ShapleyValues scores = ranker.ScoreLineage(
          *corpus.db, entry.query, contrib.tuple, candidates);
      // AUC over (positive, negative) pairs.
      for (const auto& [fp, vp] : contrib.shapley) {
        for (const auto& [fc, vg] : gold) {
          if (vg != 0.0) continue;
          if (scores.at(fp) > scores.at(fc)) auc_sum += 1.0;
          if (scores.at(fp) == scores.at(fc)) auc_sum += 0.5;
          ++auc_pairs;
        }
      }
      ndcgs.push_back(NdcgAtK(RankByScore(scores), gold, 10));
    }
  }
  ExtResult r;
  r.auc = auc_pairs > 0 ? auc_sum / static_cast<double>(auc_pairs) : 0.0;
  r.ndcg = Mean(ndcgs);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Extension: lineage-free candidate ranking via negative "
              "sampling (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);

  TrainConfig base_cfg;
  base_cfg.pretrain_epochs = 2;
  base_cfg.pretrain_pairs_per_epoch = 512;
  base_cfg.finetune_epochs = 6;
  base_cfg.finetune_samples_per_epoch = 3072;
  base_cfg.seed = 1100;

  std::printf("\n%-42s %12s %10s\n", "training regime", "sep. AUC",
              "NDCG@10");
  {
    TrainResult r = TrainLearnShapley(wb.corpus, wb.sims, base_cfg, pool);
    const ExtResult m = Measure(*r.ranker, wb.corpus);
    std::printf("%-42s %12.3f %10.3f\n",
                "positives only (paper)", m.auc, m.ndcg);
  }
  {
    TrainConfig cfg = base_cfg;
    cfg.negative_samples_per_contribution = 4;
    cfg.seed = 1101;
    TrainResult r = TrainLearnShapley(wb.corpus, wb.sims, cfg, pool);
    const ExtResult m = Measure(*r.ranker, wb.corpus);
    std::printf("%-42s %12.3f %10.3f\n",
                "+4 negative samples per tuple (extension)", m.auc, m.ndcg);
  }
  std::printf("\n(AUC 0.5 = cannot separate contributing from "
              "non-contributing facts.)\n");
  return 0;
}
