// Table 4: pre-training similarity-objective ablation on the Academic
// database — LearnShapley-base pre-trained on every subset of
// {rank, witness, syntax}, then fine-tuned identically.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Table 4: pre-training similarity-metric ablation (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);

  struct Combo {
    const char* name;
    PretrainObjectives obj;
  };
  const std::vector<Combo> combos = {
      {"rank & witness & syntax (full)", {true, true, true}},
      {"witness & rank (w/o syntax)", {true, true, false}},
      {"syntax & rank (w/o witness)", {true, false, true}},
      {"witness & syntax (w/o rank)", {false, true, true}},
      {"syntax (w/o witness & rank)", {false, false, true}},
      {"witness (w/o syntax & rank)", {false, true, false}},
      {"rank (w/o witness & syntax)", {true, false, false}},
  };

  std::printf("\n%-34s %9s %8s %8s %8s\n", "pre-training objectives",
              "NDCG@10", "p@1", "p@3", "p@5");
  uint64_t seed = 400;
  for (const Combo& combo : combos) {
    TrainConfig cfg;
    cfg.objectives = combo.obj;
    cfg.pretrain_epochs = 3;
    cfg.pretrain_pairs_per_epoch = 512;
    cfg.finetune_epochs = 4;
    cfg.finetune_samples_per_epoch = 2048;
    cfg.seed = seed++;
    TrainResult r = TrainLearnShapley(wb.corpus, wb.sims, cfg, pool);
    const EvalSummary s = EvaluateScorer(wb.corpus, wb.corpus.test_idx,
                                         *r.ranker, {}, pool);
    std::printf("%-34s %9.3f %8.3f %8.3f %8.3f\n", combo.name, s.ndcg10, s.p1,
                s.p3, s.p5);
  }
  return 0;
}
