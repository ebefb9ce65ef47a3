#include "learnshapley/nearest_queries.h"

#include <algorithm>

#include "common/check.h"

namespace lshap {

const char* SimilarityMetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kSyntax:
      return "syntax";
    case SimilarityMetric::kWitness:
      return "witness";
    case SimilarityMetric::kRank:
      return "rank";
  }
  return "?";
}

NearestQueriesScorer::NearestQueriesScorer(const Corpus* corpus,
                                           const SimilarityMatrices* sims,
                                           SimilarityMetric metric,
                                           size_t num_neighbors,
                                           std::vector<size_t> train_subset)
    : corpus_(corpus),
      sims_(sims),
      metric_(metric),
      num_neighbors_(num_neighbors),
      train_subset_(std::move(train_subset)) {
  LSHAP_CHECK(corpus != nullptr);
  LSHAP_CHECK(sims != nullptr);
  if (train_subset_.empty()) train_subset_ = corpus->train_idx;
  for (size_t e : train_subset_) {
    const CorpusEntry& entry = corpus_->entries[e];
    std::unordered_map<FactId, double> sums;
    std::unordered_map<FactId, size_t> counts;
    for (const auto& c : entry.contributions) {
      for (const auto& [f, v] : c.shapley) {
        sums[f] += v;
        ++counts[f];
      }
    }
    for (auto& [f, s] : sums) s /= static_cast<double>(counts[f]);
    fact_means_.emplace(e, std::move(sums));
  }
}

void NearestQueriesScorer::set_metrics(MetricsRegistry* registry) {
  scores_ = CounterFor(registry, "knn.scores");
  candidates_ = HistogramFor(registry, "knn.candidates",
                             ExponentialBuckets(1.0, 2.0, 12));
}

std::vector<std::pair<size_t, double>> NearestQueriesScorer::Neighbors(
    size_t entry_idx) const {
  const std::vector<std::vector<double>>* matrix = nullptr;
  switch (metric_) {
    case SimilarityMetric::kSyntax:
      matrix = &sims_->syntax;
      break;
    case SimilarityMetric::kWitness:
      matrix = &sims_->witness;
      break;
    case SimilarityMetric::kRank:
      matrix = &sims_->rank;
      break;
  }
  std::vector<std::pair<size_t, double>> candidates;
  candidates.reserve(train_subset_.size());
  for (size_t t : train_subset_) {
    if (t == entry_idx) continue;
    candidates.emplace_back(t, (*matrix)[entry_idx][t]);
  }
  const size_t n = std::min(num_neighbors_, candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(n),
                    candidates.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  candidates.resize(n);
  return candidates;
}

ShapleyValues NearestQueriesScorer::Score(const Corpus& corpus,
                                          size_t entry_idx,
                                          size_t contrib_idx) const {
  const TupleContribution& contrib =
      corpus.entries[entry_idx].contributions[contrib_idx];
  scores_.Inc();
  if (candidates_.enabled()) {
    // The candidate pool is every usable train entry, before the top-n cut —
    // the quantity the paper's KNN cost scales with.
    const bool self = std::find(train_subset_.begin(), train_subset_.end(),
                                entry_idx) != train_subset_.end();
    candidates_.Observe(
        static_cast<double>(train_subset_.size() - (self ? 1 : 0)));
  }
  const auto neighbors = Neighbors(entry_idx);

  ShapleyValues out;
  out.reserve(contrib.shapley.size());
  for (const auto& [f, gold] : contrib.shapley) {
    double sum = 0.0;
    for (const auto& [nbr, sim] : neighbors) {
      auto entry_it = fact_means_.find(nbr);
      if (entry_it == fact_means_.end()) continue;
      auto fact_it = entry_it->second.find(f);
      if (fact_it != entry_it->second.end()) sum += fact_it->second;
    }
    out[f] = neighbors.empty()
                 ? 0.0
                 : sum / static_cast<double>(neighbors.size());
  }
  return out;
}

std::string NearestQueriesScorer::name() const {
  return std::string("nearest-queries-") + SimilarityMetricName(metric_);
}

}  // namespace lshap
