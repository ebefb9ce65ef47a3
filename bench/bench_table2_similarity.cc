// Table 2: average query similarities (syntax / witness / rank) between the
// train split and each of train, dev, test, and across all query pairs.
#include <cstdio>

#include "bench_common.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

void PrintDb(const Workbench& wb) {
  const Corpus& c = wb.corpus;
  std::vector<size_t> all(c.entries.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  struct Row {
    const char* name;
    const std::vector<std::vector<double>>* matrix;
  };
  const Row rows[] = {
      {"Syntax-Based Similarity", &wb.sims.syntax},
      {"Witness-Based Similarity", &wb.sims.witness},
      {"Rank-Based Similarity", &wb.sims.rank},
  };
  std::printf("\n[%s]\n", wb.label.c_str());
  std::printf("%-26s %12s %12s %12s %12s\n", "", "Train-train", "Train-dev",
              "Train-test", "All pairs");
  for (const Row& row : rows) {
    std::printf("%-26s %12.3f %12.3f %12.3f %12.3f\n", row.name,
                MeanGroupSimilarity(*row.matrix, c.train_idx, c.train_idx),
                MeanGroupSimilarity(*row.matrix, c.train_idx, c.dev_idx),
                MeanGroupSimilarity(*row.matrix, c.train_idx, c.test_idx),
                MeanGroupSimilarity(*row.matrix, all, all));
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Table 2: average query similarities between splits");
  const Workbench imdb = MakeImdbWorkbench(pool);
  PrintDb(imdb);
  const Workbench academic = MakeAcademicWorkbench(pool);
  PrintDb(academic);
  return 0;
}
