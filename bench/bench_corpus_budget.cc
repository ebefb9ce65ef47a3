// Corpus-build wall time under resource governance: the same IMDB corpus
// built (a) unbounded (historical behavior), (b) with a sane per-tuple
// deadline + node budget, and (c) with a deliberately starved node budget
// that pushes everything onto the Monte-Carlo rung. Prints wall time and the
// BuildStats rung/trip breakdown for each — feeds the BENCH_pr2.json
// corpus-build comparison.
#include <cstdio>

#include "bench_common.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

CorpusConfig BaseConfig() {
  CorpusConfig cfg;
  cfg.seed = 101;
  cfg.num_base_queries = 34;
  cfg.max_outputs_per_query = 24;
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 4;
  cfg.metrics = BenchMetrics();
  return cfg;
}

void Run(const char* label, const CorpusConfig& cfg, const GeneratedDb& data,
         ThreadPool& pool) {
  const Corpus c = BuildCorpus(*data.db, data.graph, cfg, pool);
  const BuildStats& s = c.stats;
  std::printf("\n[%s]\n", label);
  std::printf("wall %.3fs | entries %zu | attempted %zu\n", s.wall_seconds,
              c.entries.size(), s.attempted());
  std::printf("rungs: exact %zu | monte-carlo %zu | cnf-proxy %zu | "
              "skipped %zu\n",
              s.exact, s.monte_carlo, s.cnf_proxy, s.skipped);
  for (const auto& [site, count] : s.budget_trips) {
    std::printf("  budget trips at %-24s %zu\n", site.c_str(), count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Corpus build under execution budgets (IMDB scale, seed 101)");
  const GeneratedDb data = MakeImdbDatabase({});

  Run("unbounded (historical)", BaseConfig(), data, pool);

  CorpusConfig sane = BaseConfig();
  sane.tuple_deadline_seconds = 0.5;
  sane.max_circuit_nodes = 1u << 20;
  Run("sane budget (0.5s/tuple, 1M nodes)", sane, data, pool);

  CorpusConfig starved = BaseConfig();
  starved.max_circuit_nodes = 8;
  starved.mc_fallback_samples = 2000;
  Run("starved (8-node circuits -> MC rung)", starved, data, pool);

  return 0;
}
