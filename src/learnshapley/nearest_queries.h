#ifndef LSHAP_LEARNSHAPLEY_NEAREST_QUERIES_H_
#define LSHAP_LEARNSHAPLEY_NEAREST_QUERIES_H_

#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "learnshapley/scorer.h"

namespace lshap {

enum class SimilarityMetric { kSyntax, kWitness, kRank };

const char* SimilarityMetricName(SimilarityMetric metric);

// The Nearest Queries baseline (Section 5.1): to score a fact f for a new
// query, find the n most similar *training* queries under the chosen metric
// and average f's (per-query mean) Shapley value across them; facts unseen
// in those queries score 0. With the rank metric this is a controlled
// experiment, since rank similarity itself requires the gold Shapley values
// of the test query.
class NearestQueriesScorer : public FactScorer {
 public:
  // `train_subset` selects which training entries the baseline may use
  // (Figure 11 trains on fractions of the log); empty means corpus.train_idx.
  NearestQueriesScorer(const Corpus* corpus, const SimilarityMatrices* sims,
                       SimilarityMetric metric, size_t num_neighbors = 3,
                       std::vector<size_t> train_subset = {});

  ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                      size_t contrib_idx) const override;
  std::string name() const override;

  // The n nearest training entries (by the configured metric) to the given
  // entry, with their similarity scores. Exposed for Figure 10.
  std::vector<std::pair<size_t, double>> Neighbors(size_t entry_idx) const;

  // Observability opt-in: histograms how many KNN candidates each Score
  // call ranks (knn.candidates) and counts scoring calls (knn.scores).
  void set_metrics(MetricsRegistry* registry);

 private:
  const Corpus* corpus_;
  const SimilarityMatrices* sims_;
  SimilarityMetric metric_;
  size_t num_neighbors_;
  std::vector<size_t> train_subset_;
  // Per train entry: mean Shapley value of each fact across the entry's
  // contributions where it appears.
  std::unordered_map<size_t, std::unordered_map<FactId, double>> fact_means_;
  Counter scores_;
  Histogram candidates_;
};

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_NEAREST_QUERIES_H_
