#ifndef LSHAP_LEARNSHAPLEY_EVALUATE_H_
#define LSHAP_LEARNSHAPLEY_EVALUATE_H_

#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "corpus/stream.h"
#include "learnshapley/scorer.h"

namespace lshap {

// Metrics for one (query, output tuple) pair, plus the covariates the
// paper's analysis figures plot against.
struct EvalPoint {
  size_t entry_idx = 0;
  size_t contrib_idx = 0;
  double ndcg10 = 0.0;
  double p1 = 0.0;
  double p3 = 0.0;
  double p5 = 0.0;
  size_t lineage_size = 0;
  size_t num_tables = 0;
  // Partial NDCG@10 over the seen / unseen fact subsets (Figure 12); valid
  // only when the corresponding has_* flag is set.
  double seen_ndcg10 = 0.0;
  double unseen_ndcg10 = 0.0;
  bool has_seen = false;
  bool has_unseen = false;
};

struct EvalSummary {
  double ndcg10 = 0.0;  // means over points
  double p1 = 0.0;
  double p3 = 0.0;
  double p5 = 0.0;
  std::vector<EvalPoint> points;
};

// Evaluates `scorer` on every contribution of the given corpus split, in
// parallel, every worker scoring through the one const `scorer`.
// `train_seen` (may be empty) enables the seen/unseen partial metrics.
EvalSummary EvaluateScorer(const Corpus& corpus,
                           const std::vector<size_t>& split,
                           const FactScorer& scorer,
                           const std::unordered_set<FactId>& train_seen,
                           ThreadPool& pool);

// Streaming variant: walks only the shards the split touches, one at a
// time with lookahead prefetch, so peak corpus memory is bounded by shard
// size. `split` holds global entry indices; points come back in the same
// (split position, contribution) order as EvaluateScorer, and for a
// single-shard stream the result is identical to the resident evaluator
// (EvaluateScorer is this function over an InMemoryCorpusStream).
//
// The scorer sees each slice's chunk Corpus. With an InMemoryCorpusStream
// that chunk is the full corpus; with a multi-shard stream, scorers that
// read corpus-global state (the NearestQueries baselines) are not
// supported — use a ranker that scores from (db, entry) alone. Fails with
// the pool's status when it rejects the work (after Shutdown).
Result<EvalSummary> EvaluateScorerStream(
    const CorpusStream& stream, const std::vector<size_t>& split,
    const FactScorer& scorer, const std::unordered_set<FactId>& train_seen,
    ThreadPool& pool);

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_EVALUATE_H_
