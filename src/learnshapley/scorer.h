#ifndef LSHAP_LEARNSHAPLEY_SCORER_H_
#define LSHAP_LEARNSHAPLEY_SCORER_H_

#include <string>

#include "corpus/corpus.h"
#include "shapley/shapley.h"

namespace lshap {

// Anything that can score the lineage facts of one (query, output tuple)
// pair: LearnShapley, the Nearest Queries baselines, or the exact engine.
// Implementations may only read the contribution's *lineage* (the key set of
// its Shapley map) — never the gold values — except for baselines the paper
// explicitly marks as controlled experiments (rank-based Nearest Queries).
class FactScorer {
 public:
  virtual ~FactScorer() = default;

  // Scores every lineage fact of corpus.entries[entry_idx]
  // .contributions[contrib_idx]. Higher = more contributing.
  // Const and safe to call from many threads at once: evaluation scores
  // one shared instance from every worker.
  virtual ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                              size_t contrib_idx) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_SCORER_H_
