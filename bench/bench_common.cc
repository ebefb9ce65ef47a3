#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace lshap {
namespace bench {

namespace {

MetricsRegistry* g_bench_metrics = nullptr;
std::string g_metrics_path;

void FlushBenchMetrics() {
  if (g_bench_metrics == nullptr) return;
  const std::string json = g_bench_metrics->ToJson();
  std::FILE* f = std::fopen(g_metrics_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n",
                 g_metrics_path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

CorpusConfig ImdbCorpusConfig() {
  CorpusConfig cfg;
  cfg.seed = 101;
  cfg.num_base_queries = 34;
  cfg.max_outputs_per_query = 24;
  // Multi-table joins give the paper-like lineage sizes (~18 facts/result
  // on IMDB); single-table scans have trivial single-fact lineages.
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 4;
  cfg.metrics = BenchMetrics();
  return cfg;
}

CorpusConfig AcademicCorpusConfig() {
  CorpusConfig cfg;
  cfg.seed = 202;
  cfg.num_base_queries = 34;
  cfg.max_outputs_per_query = 24;
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 5;
  cfg.metrics = BenchMetrics();
  return cfg;
}

}  // namespace

MetricsRegistry* ParseBenchArgs(int argc, char** argv,
                                const std::vector<BenchFlag>& flags) {
  constexpr std::string_view kMetricsFlag = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kMetricsFlag) && arg.size() > kMetricsFlag.size()) {
      g_metrics_path = arg.substr(kMetricsFlag.size());
      continue;
    }
    const BenchFlag* match = nullptr;
    for (const BenchFlag& flag : flags) {
      const bool takes_value = flag.name.back() == '=';
      if (takes_value ? arg.starts_with(flag.name) : arg == flag.name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      std::string usage = "[--metrics-json=PATH]";
      for (const BenchFlag& flag : flags) {
        usage += " [" + flag.name + (flag.name.back() == '=' ? "VALUE]" : "]");
      }
      std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s %s\n",
                   argv[0], argv[i], argv[0], usage.c_str());
      std::exit(2);
    }
    match->apply(argv[i] + match->name.size());
  }
  if (!g_metrics_path.empty() && g_bench_metrics == nullptr) {
    g_bench_metrics = &MetricsRegistry::Global();
    std::atexit(FlushBenchMetrics);
  }
  return g_bench_metrics;
}

MetricsRegistry* BenchMetrics() { return g_bench_metrics; }

Workbench MakeImdbWorkbench(ThreadPool& pool) {
  Workbench wb;
  wb.label = "IMDB";
  wb.data = MakeImdbDatabase({});
  wb.corpus = BuildCorpus(*wb.data.db, wb.data.graph, ImdbCorpusConfig(),
                          pool);
  wb.sims = ComputeSimilarityMatrices(wb.corpus, 12, pool);
  return wb;
}

Workbench MakeAcademicWorkbench(ThreadPool& pool) {
  Workbench wb;
  wb.label = "Academic";
  wb.data = MakeAcademicDatabase({});
  wb.corpus = BuildCorpus(*wb.data.db, wb.data.graph, AcademicCorpusConfig(),
                          pool);
  wb.sims = ComputeSimilarityMatrices(wb.corpus, 12, pool);
  return wb;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================================\n");
}

}  // namespace bench
}  // namespace lshap
