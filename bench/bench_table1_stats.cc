// Table 1: DBShap statistics — number of queries, results and contributing
// facts per train/dev/test split, for both databases.
#include <cstdio>

#include "bench_common.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

void PrintDb(const Workbench& wb) {
  const Corpus& c = wb.corpus;
  const SplitStats train = ComputeSplitStats(c, c.train_idx);
  const SplitStats dev = ComputeSplitStats(c, c.dev_idx);
  const SplitStats test = ComputeSplitStats(c, c.test_idx);
  std::printf("\n[%s]\n", wb.label.c_str());
  std::printf("%-12s %12s %12s %12s %12s\n", "", "Train", "Dev", "Test",
              "Total");
  std::printf("%-12s %12zu %12zu %12zu %12zu\n", "# queries", train.queries,
              dev.queries, test.queries,
              train.queries + dev.queries + test.queries);
  std::printf("%-12s %12zu %12zu %12zu %12zu\n", "# results", train.results,
              dev.results, test.results,
              train.results + dev.results + test.results);
  std::printf("%-12s %12zu %12zu %12zu %12zu\n", "# facts", train.facts,
              dev.facts, test.facts, train.facts + dev.facts + test.facts);

  // The per-query / per-result shape statistics quoted in Section 4.
  size_t outputs = 0;
  size_t facts = 0;
  size_t contribs = 0;
  size_t max_lineage = 0;
  for (const auto& e : c.entries) {
    outputs += e.all_outputs.size();
    for (const auto& ct : e.contributions) {
      facts += ct.shapley.size();
      max_lineage = std::max(max_lineage, ct.shapley.size());
      ++contribs;
    }
  }
  std::printf("avg results/query %.1f | avg facts/result %.1f | "
              "max lineage %zu\n",
              static_cast<double>(outputs) /
                  static_cast<double>(c.entries.size()),
              static_cast<double>(facts) / static_cast<double>(contribs),
              max_lineage);

  // Degradation-ladder accounting of the build (see BuildStats): which rung
  // produced each sampled tuple's ground truth, and where budgets tripped.
  const BuildStats& bs = c.stats;
  std::printf("build: exact %zu | stratified %zu | monte-carlo %zu | "
              "cnf-proxy %zu | skipped %zu | wall %.2fs\n",
              bs.exact, bs.stratified, bs.monte_carlo, bs.cnf_proxy,
              bs.skipped, bs.wall_seconds);
  for (const auto& [site, count] : bs.budget_trips) {
    std::printf("  budget trips at %-24s %zu\n", site.c_str(), count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Table 1: DBShap statistics (synthetic corpora; see DESIGN.md "
              "for scaling)");
  const Workbench imdb = MakeImdbWorkbench(pool);
  PrintDb(imdb);
  const Workbench academic = MakeAcademicWorkbench(pool);
  PrintDb(academic);
  return 0;
}
