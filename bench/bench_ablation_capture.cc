// Capture-overhead experiment supporting the paper's Section 1/6 argument:
// capturing full boolean provenance costs more than capturing lineage,
// which costs more than plain evaluation — and LearnShapley only needs the
// lineage at deployment. Reports wall time and stored bytes per mode over
// the full IMDB query log.
#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "eval/evaluator.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

struct ModeStats {
  double seconds = 0.0;
  size_t stored_entries = 0;  // clause facts (full) or lineage facts
  size_t tuples = 0;
};

ModeStats RunMode(const Corpus& corpus, ProvenanceCapture capture,
                  int repetitions) {
  ModeStats stats;
  WallTimer timer;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const auto& entry : corpus.entries) {
      auto result = Evaluate(*corpus.db, entry.query, capture);
      if (!result.ok()) continue;
      if (rep == 0) {
        stats.tuples += result->tuples.size();
        for (const auto& prov : result->provenance) {
          for (const auto& clause : prov.clauses()) {
            stats.stored_entries += clause.size();
          }
        }
        for (const auto& lineage : result->lineages) {
          stats.stored_entries += lineage.size();
        }
      }
    }
  }
  stats.seconds = timer.ElapsedSeconds() / repetitions;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Ablation: provenance-capture overhead (IMDB query log)");
  const Workbench wb = MakeImdbWorkbench(pool);

  const int reps = 5;
  const ModeStats none = RunMode(wb.corpus, ProvenanceCapture::kNone, reps);
  const ModeStats lineage =
      RunMode(wb.corpus, ProvenanceCapture::kLineageOnly, reps);
  const ModeStats full = RunMode(wb.corpus, ProvenanceCapture::kFull, reps);

  std::printf("\n%-22s %12s %14s %16s\n", "capture mode", "log time [s]",
              "stored fact-ids", "vs. no-capture");
  std::printf("%-22s %12.3f %14zu %15.2fx\n", "none (answers only)",
              none.seconds, none.stored_entries, 1.0);
  std::printf("%-22s %12.3f %14zu %15.2fx\n", "lineage only",
              lineage.seconds, lineage.stored_entries,
              lineage.seconds / none.seconds);
  std::printf("%-22s %12.3f %14zu %15.2fx\n", "full provenance (DNF)",
              full.seconds, full.stored_entries,
              full.seconds / none.seconds);
  std::printf("\n(%zu output tuples across %zu queries; LearnShapley needs "
              "only the middle row\nat deployment, the exact algorithm the "
              "bottom one.)\n",
              full.tuples, wb.corpus.entries.size());
  return 0;
}
