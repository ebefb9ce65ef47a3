// Extension: Banzhaf vs. Shapley fact attribution. The Banzhaf index is the
// other standard power index (uniform coalition weighting); it is computed
// on the same circuits and usually induces a near-identical ranking. This
// bench quantifies ranking agreement (NDCG of one against the other, top-1
// agreement) and relative compute cost over corpus provenance.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "eval/evaluator.h"
#include "metrics/ranking_metrics.h"
#include "shapley/shapley.h"

using namespace lshap;
using namespace lshap::bench;

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Extension: Banzhaf vs. Shapley attribution (IMDB)");
  const Workbench wb = MakeImdbWorkbench(pool);

  std::vector<double> cross_ndcg;
  size_t top1_agree = 0;
  size_t total = 0;
  double shapley_ms = 0.0;
  double banzhaf_ms = 0.0;

  for (size_t e : wb.corpus.train_idx) {
    const CorpusEntry& entry = wb.corpus.entries[e];
    auto result = Evaluate(*wb.corpus.db, entry.query);
    if (!result.ok()) continue;
    for (const auto& contrib : entry.contributions) {
      auto it = result->index.find(contrib.tuple);
      if (it == result->index.end()) continue;
      const Dnf& prov = result->ProvenanceOf(it->second);
      if (prov.Variables().size() < 3) continue;

      WallTimer t1;
      const ShapleyValues shapley = ComputeShapleyExactUnlimited(prov);
      shapley_ms += t1.ElapsedMillis();
      WallTimer t2;
      const ShapleyValues banzhaf = ComputeBanzhafExactUnlimited(prov);
      banzhaf_ms += t2.ElapsedMillis();

      const auto rank_b = RankByScore(banzhaf);
      cross_ndcg.push_back(NdcgAtK(rank_b, shapley, 10));
      if (rank_b[0] == RankByScore(shapley)[0]) ++top1_agree;
      ++total;
      if (total >= 300) break;
    }
    if (total >= 300) break;
  }

  std::printf("\n(q, t) pairs compared: %zu\n", total);
  std::printf("NDCG@10 of Banzhaf ranking against Shapley gold: %.4f\n",
              Mean(cross_ndcg));
  std::printf("top-1 fact agreement: %.1f%%\n",
              100.0 * static_cast<double>(top1_agree) /
                  static_cast<double>(total));
  std::printf("mean compute time: shapley %.3f ms | banzhaf %.3f ms per "
              "tuple\n",
              shapley_ms / static_cast<double>(total),
              banzhaf_ms / static_cast<double>(total));
  return 0;
}
