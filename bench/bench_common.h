#ifndef LSHAP_BENCH_BENCH_COMMON_H_
#define LSHAP_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "corpus/corpus.h"
#include "datasets/academic.h"
#include "datasets/imdb.h"

namespace lshap {
namespace bench {

// One fully prepared experiment environment: database, DBShap-style corpus
// with exact ground truth, and pairwise similarity matrices. All benches use
// these fixed seeds so every table/figure is reproducible run to run.
struct Workbench {
  GeneratedDb data;
  Corpus corpus;
  SimilarityMatrices sims;
  std::string label;  // "IMDB" or "Academic"
};

// The standard experiment scale (see DESIGN.md): large enough for training
// signal, small enough that every bench binary finishes in minutes.
Workbench MakeImdbWorkbench(ThreadPool& pool);
Workbench MakeAcademicWorkbench(ThreadPool& pool);

// Prints a horizontal rule + centered title, paper-style.
void PrintHeader(const std::string& title);

// One bench-specific command-line flag. A `name` ending in '=' takes a
// value ("--clients=" matches "--clients=8" and is applied with "8"); any
// other name is a switch, matched exactly and applied with "".
struct BenchFlag {
  std::string name;
  std::function<void(const char* value)> apply;
};

// The one command-line parser of every bench binary; call it first thing
// in main. It accepts --metrics-json=PATH plus `flags`, applied in argv
// order. Anything else prints a usage line to stderr and exits 2 before
// the bench does any work. When --metrics-json was given, it returns the
// process-global MetricsRegistry and registers an atexit hook that writes
// its ToJson() snapshot to PATH; otherwise it returns null and arranges
// nothing — the benchmarks then run with no-op handles, which is the
// baseline side of the BENCH_pr5.json overhead comparison.
MetricsRegistry* ParseBenchArgs(int argc, char** argv,
                                const std::vector<BenchFlag>& flags = {});

// The registry handed out by ParseBenchArgs, or null. Thread this into
// EvalOptions/CorpusConfig/TrainConfig and set_metrics calls; the workbench
// builders do so themselves.
MetricsRegistry* BenchMetrics();

}  // namespace bench
}  // namespace lshap

#endif  // LSHAP_BENCH_BENCH_COMMON_H_
