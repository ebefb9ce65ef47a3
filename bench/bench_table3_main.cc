// Table 3: main results — LearnShapley-base / -large vs. the Nearest Queries
// baselines (syntax / witness / rank) and the two ablations (randomly
// initialized small transformer; BERT fine-tuned without pre-training), on
// both databases, measured by NDCG@10 and p@1/3/5 on the test split.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/nearest_queries.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

struct ResultRow {
  std::string name;
  EvalSummary summary;
};

TrainConfig BaseTrainConfig(uint64_t seed) {
  TrainConfig cfg;
  cfg.pretrain_epochs = 3;
  cfg.pretrain_pairs_per_epoch = 512;
  cfg.finetune_epochs = 4;
  cfg.finetune_samples_per_epoch = 2048;
  cfg.batch_size = 64;
  cfg.seed = seed;
  return cfg;
}

void RunDb(const Workbench& wb, ThreadPool& pool) {
  const Corpus& corpus = wb.corpus;
  std::vector<ResultRow> rows;

  auto eval = [&](FactScorer& scorer) {
    return EvaluateScorer(corpus, corpus.test_idx, scorer, {}, pool);
  };

  // Nearest Queries baselines (n = 3, as in the paper).
  for (SimilarityMetric metric :
       {SimilarityMetric::kSyntax, SimilarityMetric::kWitness,
        SimilarityMetric::kRank}) {
    NearestQueriesScorer nn(&corpus, &wb.sims, metric, 3);
    rows.push_back({std::string("NearestQueries-") +
                        SimilarityMetricName(metric),
                    eval(nn)});
  }

  // Ablation: randomly initialized small transformer, fine-tune only.
  {
    TrainConfig cfg = BaseTrainConfig(301);
    cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
    cfg.do_pretrain = false;
    cfg.finetune_epochs = 6;  // the paper trains this ablation longer
    TrainResult r = TrainLearnShapley(corpus, wb.sims, cfg, pool);
    rows.push_back({"Transformer (scratch)", eval(*r.ranker)});
  }

  // Ablation: BERT fine-tuned directly, no pre-training stage.
  {
    TrainConfig cfg = BaseTrainConfig(302);
    cfg.do_pretrain = false;
    TrainResult r = TrainLearnShapley(corpus, wb.sims, cfg, pool);
    rows.push_back({"MiniBERT (no pre-train)", eval(*r.ranker)});
  }

  // LearnShapley-base.
  {
    TrainConfig cfg = BaseTrainConfig(303);
    TrainResult r = TrainLearnShapley(corpus, wb.sims, cfg, pool);
    rows.push_back({"LearnShapley-base", eval(*r.ranker)});
  }

  // LearnShapley-large.
  {
    TrainConfig cfg = BaseTrainConfig(304);
    cfg.model_size = TrainConfig::ModelSize::kLarge;
    TrainResult r = TrainLearnShapley(corpus, wb.sims, cfg, pool);
    rows.push_back({"LearnShapley-large", eval(*r.ranker)});
  }

  std::printf("\n[%s]  (test split: %zu queries)\n", wb.label.c_str(),
              corpus.test_idx.size());
  std::printf("%-28s %9s %8s %8s %8s\n", "method", "NDCG@10", "p@1", "p@3",
              "p@5");
  for (const auto& row : rows) {
    std::printf("%-28s %9.3f %8.3f %8.3f %8.3f\n", row.name.c_str(),
                row.summary.ndcg10, row.summary.p1, row.summary.p3,
                row.summary.p5);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Table 3: LearnShapley vs. Nearest Queries baselines and "
              "ablations");
  const Workbench imdb = MakeImdbWorkbench(pool);
  RunDb(imdb, pool);
  const Workbench academic = MakeAcademicWorkbench(pool);
  RunDb(academic, pool);
  return 0;
}
