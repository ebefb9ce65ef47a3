#ifndef LSHAP_LEARNSHAPLEY_RANKER_H_
#define LSHAP_LEARNSHAPLEY_RANKER_H_

#include <memory>
#include <string>

#include "common/budget.h"
#include "common/metrics.h"
#include "learnshapley/model.h"
#include "learnshapley/scorer.h"
#include "ml/tokenizer.h"

namespace lshap {

// Budget check site polled once per lineage fact in ScoreLineageBudgeted.
inline constexpr char kSiteRankScoreFact[] = "rank.score_fact";

// Which forward pass ScoreLineage runs.
enum class InferenceMode {
  kFloat = 0,      // exact float path (the differential oracle)
  kQuantized = 1,  // int8 SIMD path (DESIGN.md §12)
};

const char* InferenceModeName(InferenceMode mode);

// Opt-in inference settings. The float path stays the default; quantized
// mode derives an int8 model from the float weights on first use.
struct RankerConfig {
  InferenceMode mode = InferenceMode::kFloat;

  RankerConfig& WithMode(InferenceMode m) {
    mode = m;
    return *this;
  }
};

// The deployable LearnShapley artifact: a trained model plus its vocabulary.
// At inference it needs only the query, the output tuple and the lineage —
// no provenance — matching the paper's deployment contract.
//
// Scoring is const and scratch-free (per-thread workspaces live in
// thread-local storage), so a single ranker instance — e.g. the one inside
// a serving snapshot — is safely shareable across worker threads.
class LearnShapleyRanker : public FactScorer {
 public:
  LearnShapleyRanker(LearnShapleyModel model,
                     std::shared_ptr<const Vocab> vocab, size_t max_len,
                     float shapley_scale, std::string name);

  // Direct API for library users: scores an arbitrary (query, tuple,
  // lineage) triple against `db`. The (query, tuple) context is tokenized
  // and vocab-encoded once and reused across the whole lineage.
  ShapleyValues ScoreLineage(const Database& db, const Query& q,
                             const OutputTuple& t,
                             const std::vector<FactId>& lineage) const;

  // Deadline-aware variant: charges one work unit per lineage fact at
  // kSiteRankScoreFact, so a serving deadline interrupts a large lineage
  // between facts instead of after the whole forward-pass loop. Returns the
  // budget's trip status when interrupted — never a partially scored map.
  Result<ShapleyValues> ScoreLineageBudgeted(
      const Database& db, const Query& q, const OutputTuple& t,
      const std::vector<FactId>& lineage, ExecutionBudget& budget) const;

  // FactScorer interface (reads only the lineage keys).
  ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                      size_t contrib_idx) const override;
  std::string name() const override { return name_; }

  // An independent copy that shares the quantized model, if any.
  std::unique_ptr<LearnShapleyRanker> Clone() const;

  // Applies the inference settings. kQuantized quantizes the current float
  // weights, every time, so the int8 model has one source. Not thread-safe
  // against concurrent scoring — configure before sharing, like
  // set_metrics.
  void Configure(const RankerConfig& config);
  const RankerConfig& config() const { return config_; }

  const QuantizedShapleyModel* quantized_model() const {
    return quant_.get();
  }

  // Mutable access for training/IO. Mutating weights invalidates any
  // quantized model built from them; re-run Configure afterwards.
  LearnShapleyModel& model() { return model_; }
  const LearnShapleyModel& model() const { return model_; }
  const Vocab& vocab() const { return *vocab_; }
  size_t max_len() const { return max_len_; }
  float shapley_scale() const { return shapley_scale_; }

  // Observability opt-in: records a per-ScoreLineage latency histogram
  // (rank.score_seconds) and a scored-fact counter (rank.facts_scored).
  // Handles are plain values, so Clone() copies them and cloned rankers
  // keep reporting into the same registry; the handles' sharded cells
  // absorb contention when one shared instance is scored from many threads.
  void set_metrics(MetricsRegistry* registry);

 private:
  // One encoded sample through the configured forward pass, descaled.
  double PredictEncoded(const EncodedPair& input) const;

  LearnShapleyModel model_;
  std::shared_ptr<const QuantizedShapleyModel> quant_;
  RankerConfig config_;
  std::shared_ptr<const Vocab> vocab_;
  size_t max_len_;
  float shapley_scale_;
  std::string name_;
  Counter facts_scored_;
  Histogram score_seconds_;
};

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_RANKER_H_
