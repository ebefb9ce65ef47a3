// Figure 10: NDCG@10 of LearnShapley on (query, tuple) pairs vs. the
// similarity of the query to its nearest training query (top row) and to
// the mean of its 5 nearest (bottom row), under each similarity metric.
// Printed as binned series and Pearson correlations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

double Pearson(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(xy.size());
  my /= static_cast<double>(xy.size());
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (const auto& [x, y] : xy) {
    cov += (x - mx) * (y - my);
    vx += (x - mx) * (x - mx);
    vy += (y - my) * (y - my);
  }
  return vx > 0 && vy > 0 ? cov / std::sqrt(vx * vy) : 0.0;
}

void PrintSeries(const char* title,
                 const std::vector<std::pair<double, double>>& xy) {
  // 5 similarity bins.
  const double edges[] = {0.0, 0.1, 0.2, 0.4, 0.7, 1.01};
  std::printf("%s\n%-16s %8s %10s\n", title, "sim-bin", "pairs", "NDCG@10");
  for (int b = 0; b < 5; ++b) {
    double sum = 0.0;
    size_t n = 0;
    for (const auto& [x, y] : xy) {
      if (x >= edges[b] && x < edges[b + 1]) {
        sum += y;
        ++n;
      }
    }
    if (n == 0) continue;
    std::printf("[%.2f,%.2f)%6s %8zu %10.3f\n", edges[b], edges[b + 1], "",
                n, sum / static_cast<double>(n));
  }
  std::printf("Pearson correlation: %.3f\n\n", Pearson(xy));
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Figure 10: NDCG@10 vs. nearest-query similarity (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);
  const Corpus& corpus = wb.corpus;

  TrainConfig cfg;
  cfg.pretrain_epochs = 3;
  cfg.pretrain_pairs_per_epoch = 768;
  cfg.finetune_epochs = 8;
  cfg.finetune_samples_per_epoch = 3072;
  cfg.seed = 800;
  TrainResult trained = TrainLearnShapley(corpus, wb.sims, cfg, pool);
  const EvalSummary s = EvaluateScorer(corpus, corpus.test_idx,
                                       *trained.ranker, {}, pool);

  struct Metric {
    const char* name;
    const std::vector<std::vector<double>>* matrix;
  };
  const Metric metrics[] = {{"syntax-based", &wb.sims.syntax},
                            {"witness-based", &wb.sims.witness},
                            {"rank-based", &wb.sims.rank}};

  for (const Metric& metric : metrics) {
    // Per test entry: top-1 and mean-of-top-5 similarity to train queries.
    std::vector<std::pair<double, double>> xy_top1, xy_top5;
    for (const auto& pt : s.points) {
      std::vector<double> sims;
      for (size_t t : corpus.train_idx) {
        if (t != pt.entry_idx) {
          sims.push_back((*metric.matrix)[pt.entry_idx][t]);
        }
      }
      std::sort(sims.rbegin(), sims.rend());
      if (sims.empty()) continue;
      xy_top1.emplace_back(sims[0], pt.ndcg10);
      double top5 = 0.0;
      const size_t n = std::min<size_t>(5, sims.size());
      for (size_t i = 0; i < n; ++i) top5 += sims[i];
      xy_top5.emplace_back(top5 / static_cast<double>(n), pt.ndcg10);
    }
    std::printf("\n--- %s ---\n", metric.name);
    PrintSeries("(top) similarity of single nearest train query", xy_top1);
    PrintSeries("(bottom) mean similarity of 5 nearest train queries",
                xy_top5);
  }
  return 0;
}
