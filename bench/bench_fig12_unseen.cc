// Figure 12: partial NDCG of LearnShapley's rankings on the Academic test
// set, restricted separately to facts seen during training and to unseen
// facts, printed as histograms plus means.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/trainer.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

void PrintHistogram(const char* title, const std::vector<double>& values) {
  std::printf("\n%s  (%zu pairs)\n", title, values.size());
  const int kBins = 10;
  std::vector<size_t> bins(kBins, 0);
  double mean = 0.0;
  for (double v : values) {
    int b = static_cast<int>(v * kBins);
    if (b >= kBins) b = kBins - 1;
    if (b < 0) b = 0;
    ++bins[static_cast<size_t>(b)];
    mean += v;
  }
  if (!values.empty()) mean /= static_cast<double>(values.size());
  for (int b = 0; b < kBins; ++b) {
    std::string bar(bins[static_cast<size_t>(b)], '#');
    std::printf("[%.1f,%.1f) %4zu |%s\n", b / 10.0, (b + 1) / 10.0,
                bins[static_cast<size_t>(b)], bar.c_str());
  }
  std::printf("mean partial NDCG: %.3f\n", mean);
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Figure 12: partial NDCG on seen vs. unseen facts (Academic)");
  const Workbench wb = MakeAcademicWorkbench(pool);
  const Corpus& corpus = wb.corpus;

  TrainConfig cfg;
  cfg.pretrain_epochs = 3;
  cfg.pretrain_pairs_per_epoch = 768;
  cfg.finetune_epochs = 5;
  cfg.finetune_samples_per_epoch = 3072;
  cfg.seed = 1000;
  TrainResult trained = TrainLearnShapley(corpus, wb.sims, cfg, pool);

  const auto seen = TrainSeenFacts(corpus);
  size_t total = 0;
  size_t unseen_facts = 0;
  for (size_t e : corpus.test_idx) {
    for (const auto& c : corpus.entries[e].contributions) {
      for (const auto& [f, v] : c.shapley) {
        ++total;
        if (seen.count(f) == 0) ++unseen_facts;
      }
    }
  }
  std::printf("\n%.1f%% of test lineage facts were never seen in training "
              "(%zu / %zu)\n",
              100.0 * static_cast<double>(unseen_facts) /
                  static_cast<double>(total),
              unseen_facts, total);

  const EvalSummary s = EvaluateScorer(corpus, corpus.test_idx,
                                       *trained.ranker, seen, pool);
  std::vector<double> seen_scores, unseen_scores;
  for (const auto& pt : s.points) {
    if (pt.has_seen) seen_scores.push_back(pt.seen_ndcg10);
    if (pt.has_unseen) unseen_scores.push_back(pt.unseen_ndcg10);
  }
  PrintHistogram("(a) partial NDCG over facts SEEN during training",
                 seen_scores);
  PrintHistogram("(b) partial NDCG over facts UNSEEN during training",
                 unseen_scores);
  std::printf("\n(Partial NDCGs are computed over fact subsets and are not "
              "comparable to the\nfull-lineage NDCG of Figure 9.)\n");
  return 0;
}
