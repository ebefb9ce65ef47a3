// Figure 11: robustness to query-log size — LearnShapley-base and the
// Nearest Queries baselines trained on nested 10/25/50/75/100% subsets of
// the training log, evaluated on the fixed test split (Academic).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/nearest_queries.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Figure 11: metrics vs. query-log fraction (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);
  const Corpus& corpus = wb.corpus;

  // Nested subsets: shuffle once, take prefixes.
  std::vector<size_t> shuffled = corpus.train_idx;
  Rng rng(900);
  rng.Shuffle(shuffled);
  const double fractions[] = {0.10, 0.25, 0.50, 0.75, 1.00};

  std::printf("\n%-10s %-26s %9s %8s %8s %8s %8s\n", "log-size", "method",
              "NDCG@10", "p@1", "p@3", "p@5", "unseen%");
  uint64_t seed = 901;
  for (double frac : fractions) {
    const size_t take = std::max<size_t>(
        1, static_cast<size_t>(frac * static_cast<double>(shuffled.size())));
    std::vector<size_t> subset(shuffled.begin(),
                               shuffled.begin() + static_cast<ptrdiff_t>(take));

    // Fraction of test lineage facts unseen under this subset.
    Corpus reduced = corpus;
    reduced.train_idx = subset;
    const auto seen = TrainSeenFacts(reduced);
    size_t total = 0;
    size_t unseen = 0;
    for (size_t e : corpus.test_idx) {
      for (const auto& c : corpus.entries[e].contributions) {
        for (const auto& [f, v] : c.shapley) {
          ++total;
          if (seen.count(f) == 0) ++unseen;
        }
      }
    }
    const double unseen_pct =
        100.0 * static_cast<double>(unseen) / static_cast<double>(total);

    // LearnShapley-base on the subset.
    {
      TrainConfig cfg;
      cfg.train_subset = subset;
      cfg.pretrain_epochs = 3;
      cfg.pretrain_pairs_per_epoch = 768;
      cfg.finetune_epochs = 8;
      cfg.finetune_samples_per_epoch = 3072;
      cfg.seed = seed++;
      TrainResult r = TrainLearnShapley(corpus, wb.sims, cfg, pool);
      const EvalSummary s = EvaluateScorer(corpus, corpus.test_idx,
                                           *r.ranker, {}, pool);
      std::printf("%-10.0f %-26s %9.3f %8.3f %8.3f %8.3f %7.1f%%\n",
                  frac * 100, "LearnShapley-base", s.ndcg10, s.p1, s.p3, s.p5,
                  unseen_pct);
    }
    // Nearest Queries baselines restricted to the subset.
    for (SimilarityMetric metric :
         {SimilarityMetric::kSyntax, SimilarityMetric::kWitness,
          SimilarityMetric::kRank}) {
      NearestQueriesScorer nn(&corpus, &wb.sims, metric, 3, subset);
      const EvalSummary s = EvaluateScorer(corpus, corpus.test_idx, nn, {},
                                           pool);
      std::printf("%-10.0f %-26s %9.3f %8.3f %8.3f %8.3f %7.1f%%\n",
                  frac * 100, nn.name().c_str(), s.ndcg10, s.p1, s.p3, s.p5,
                  unseen_pct);
    }
  }
  return 0;
}
