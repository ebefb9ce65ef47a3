// Figure 9: LearnShapley-base NDCG@10 on Academic test (query, tuple) pairs
// as a function of (a) lineage size and (b) number of joined tables.
// Printed as binned series plus the linear trendline slope.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

double TrendSlope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(xy.size());
  my /= static_cast<double>(xy.size());
  double cov = 0.0, var = 0.0;
  for (const auto& [x, y] : xy) {
    cov += (x - mx) * (y - my);
    var += (x - mx) * (x - mx);
  }
  return var > 0 ? cov / var : 0.0;
}

void PrintBinned(const char* title, const std::map<size_t, std::vector<double>>& bins) {
  std::printf("\n%s\n%-18s %8s %10s\n", title, "bin", "pairs", "NDCG@10");
  for (const auto& [bin, vals] : bins) {
    double mean = 0.0;
    for (double v : vals) mean += v;
    mean /= static_cast<double>(vals.size());
    std::string bar(static_cast<size_t>(mean * 40), '#');
    std::printf("%-18zu %8zu %10.3f  |%s\n", bin, vals.size(), mean,
                bar.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Figure 9: NDCG@10 vs. lineage size (a) and #joined tables (b) "
              "— Academic");
  const Workbench wb = MakeAcademicWorkbench(pool);

  TrainConfig cfg;
  cfg.pretrain_epochs = 3;
  cfg.pretrain_pairs_per_epoch = 768;
  cfg.finetune_epochs = 5;
  cfg.finetune_samples_per_epoch = 3072;
  cfg.seed = 700;
  TrainResult trained = TrainLearnShapley(wb.corpus, wb.sims, cfg, pool);
  const EvalSummary s = EvaluateScorer(wb.corpus, wb.corpus.test_idx,
                                       *trained.ranker, {}, pool);

  // (a) vs lineage size, binned by powers-of-two-ish sizes.
  std::map<size_t, std::vector<double>> by_lineage;
  std::vector<std::pair<double, double>> xy_lineage;
  for (const auto& pt : s.points) {
    size_t bin = 4;
    while (bin < pt.lineage_size) bin *= 2;
    by_lineage[bin].push_back(pt.ndcg10);
    xy_lineage.emplace_back(static_cast<double>(pt.lineage_size), pt.ndcg10);
  }
  PrintBinned("(a) by lineage size (bin = upper bound)", by_lineage);
  std::printf("linear trendline slope: %.5f NDCG per lineage fact\n",
              TrendSlope(xy_lineage));

  // (b) vs number of joined tables.
  std::map<size_t, std::vector<double>> by_tables;
  std::vector<std::pair<double, double>> xy_tables;
  for (const auto& pt : s.points) {
    by_tables[pt.num_tables].push_back(pt.ndcg10);
    xy_tables.emplace_back(static_cast<double>(pt.num_tables), pt.ndcg10);
  }
  PrintBinned("(b) by #tables joined", by_tables);
  std::printf("linear trendline slope: %.5f NDCG per joined table\n",
              TrendSlope(xy_tables));
  return 0;
}
