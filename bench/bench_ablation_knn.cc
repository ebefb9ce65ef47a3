// Ablation: the Nearest Queries neighbour count. The paper reports n = 3
// "led to the best results"; this sweep reproduces that tuning across all
// three similarity metrics on both databases.
#include <cstdio>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/nearest_queries.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

void RunDb(const Workbench& wb, ThreadPool& pool) {
  std::printf("\n[%s]\n%-10s %-10s %9s %8s %8s %8s\n", wb.label.c_str(),
              "metric", "n", "NDCG@10", "p@1", "p@3", "p@5");
  for (SimilarityMetric metric :
       {SimilarityMetric::kSyntax, SimilarityMetric::kWitness,
        SimilarityMetric::kRank}) {
    for (size_t n : {1u, 3u, 5u, 10u}) {
      NearestQueriesScorer nn(&wb.corpus, &wb.sims, metric, n);
      const EvalSummary s =
          EvaluateScorer(wb.corpus, wb.corpus.test_idx, nn, {}, pool);
      std::printf("%-10s %-10zu %9.3f %8.3f %8.3f %8.3f\n",
                  SimilarityMetricName(metric), n, s.ndcg10, s.p1, s.p3,
                  s.p5);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Ablation: Nearest Queries neighbour count (paper uses n = 3)");
  const Workbench imdb = MakeImdbWorkbench(pool);
  RunDb(imdb, pool);
  const Workbench academic = MakeAcademicWorkbench(pool);
  RunDb(academic, pool);
  return 0;
}
