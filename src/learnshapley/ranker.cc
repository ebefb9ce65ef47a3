#include "learnshapley/ranker.h"

#include <chrono>

#include "learnshapley/serialization.h"

namespace lshap {

namespace {

// Per-thread inference workspaces. The ranker itself stays const during
// scoring; every thread that scores through a shared instance brings its
// own activation scratch via these.
InferenceArena& TlsArena() {
  thread_local InferenceArena arena;
  return arena;
}

QuantScratch& TlsScratch() {
  thread_local QuantScratch scratch;
  return scratch;
}

}  // namespace

const char* InferenceModeName(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kFloat:
      return "float";
    case InferenceMode::kQuantized:
      return "quantized";
  }
  return "unknown";
}

LearnShapleyRanker::LearnShapleyRanker(LearnShapleyModel model,
                                       std::shared_ptr<const Vocab> vocab,
                                       size_t max_len, float shapley_scale,
                                       std::string name)
    : model_(std::move(model)),
      vocab_(std::move(vocab)),
      max_len_(max_len),
      shapley_scale_(shapley_scale),
      name_(std::move(name)) {}

void LearnShapleyRanker::set_metrics(MetricsRegistry* registry) {
  facts_scored_ = CounterFor(registry, "rank.facts_scored");
  score_seconds_ = HistogramFor(registry, "rank.score_seconds",
                                ExponentialBuckets(1e-5, 4.0, 12));
}

void LearnShapleyRanker::Configure(const RankerConfig& config) {
  config_ = config;
  if (config_.mode == InferenceMode::kQuantized) {
    quant_ = std::make_shared<const QuantizedShapleyModel>(
        QuantizedShapleyModel::FromModel(model_));
  }
}

double LearnShapleyRanker::PredictEncoded(const EncodedPair& input) const {
  const float raw = config_.mode == InferenceMode::kQuantized
                        ? quant_->PredictShapley(input, TlsScratch())
                        : model_.PredictShapley(input, TlsArena());
  return static_cast<double>(raw) / static_cast<double>(shapley_scale_);
}

ShapleyValues LearnShapleyRanker::ScoreLineage(
    const Database& db, const Query& q, const OutputTuple& t,
    const std::vector<FactId>& lineage) const {
  // An unlimited budget never trips, so this is the budgeted loop minus
  // the early exit.
  ExecutionBudget unlimited = ExecutionBudget::Unlimited();
  Result<ShapleyValues> scores =
      ScoreLineageBudgeted(db, q, t, lineage, unlimited);
  LSHAP_CHECK(scores.ok());
  return std::move(scores).value();
}

Result<ShapleyValues> LearnShapleyRanker::ScoreLineageBudgeted(
    const Database& db, const Query& q, const OutputTuple& t,
    const std::vector<FactId>& lineage, ExecutionBudget& budget) const {
  const auto start = score_seconds_.enabled()
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  // Encode the (query, tuple) context once; only the fact segment differs
  // across the tuple's lineage.
  const std::vector<std::string> t_tokens = TupleTokens(t);
  const std::vector<int> q_ids = EncodeTokens(*vocab_, QueryTokens(q));
  const std::vector<int> t_ids = EncodeTokens(*vocab_, t_tokens);
  ShapleyValues out;
  out.reserve(lineage.size());
  size_t scored = 0;
  for (FactId f : lineage) {
    Status st = budget.Charge(1, kSiteRankScoreFact);
    if (!st.ok()) {
      facts_scored_.Inc(scored);
      return st;
    }
    const std::vector<int> f_ids =
        EncodeTokens(*vocab_, FactTokensWithContext(db, f, t_tokens));
    const EncodedPair input =
        AssembleEncodedSegments({&q_ids, &t_ids, &f_ids}, max_len_);
    out[f] = PredictEncoded(input);
    ++scored;
  }
  facts_scored_.Inc(scored);
  if (score_seconds_.enabled()) {
    score_seconds_.Observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  return out;
}

ShapleyValues LearnShapleyRanker::Score(const Corpus& corpus,
                                        size_t entry_idx,
                                        size_t contrib_idx) const {
  const CorpusEntry& entry = corpus.entries[entry_idx];
  const TupleContribution& contrib = entry.contributions[contrib_idx];
  std::vector<FactId> lineage;
  lineage.reserve(contrib.shapley.size());
  for (const auto& [f, v] : contrib.shapley) lineage.push_back(f);
  return ScoreLineage(*corpus.db, entry.query, contrib.tuple, lineage);
}

std::unique_ptr<LearnShapleyRanker> LearnShapleyRanker::Clone() const {
  return std::make_unique<LearnShapleyRanker>(*this);
}

}  // namespace lshap
