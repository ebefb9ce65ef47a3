#ifndef LSHAP_LEARNSHAPLEY_MODEL_H_
#define LSHAP_LEARNSHAPLEY_MODEL_H_

#include <string>
#include <vector>

#include "ml/adam.h"
#include "ml/encoder.h"
#include "ml/quant.h"
#include "ml/tokenizer.h"

namespace lshap {

// Which pre-training similarity objectives are enabled (the Table 4
// ablation switches these off individually).
struct PretrainObjectives {
  bool rank = true;
  bool witness = true;
  bool syntax = true;

  bool AnyEnabled() const { return rank || witness || syntax; }
};

// The LearnShapley network (Figure 4): a shared MiniBERT encoder with three
// similarity regression heads used during pre-training and one Shapley
// regression head used during fine-tuning and inference. All heads read the
// [CLS] representation.
//
// Predictions are const, so evaluation and serving threads share one model.
// Training steps accumulate gradients into Params, so data-parallel
// training gives each worker its own copy (copies share nothing).
class LearnShapleyModel {
 public:
  LearnShapleyModel() = default;
  LearnShapleyModel(const EncoderConfig& encoder_config, uint64_t seed);

  // --- Pre-training (query-pair similarity regression) ---

  // Runs one pair through the encoder and the enabled heads, accumulates
  // gradients of the summed MSE losses, and returns the loss value.
  float PretrainStep(const EncodedPair& pair, double sim_rank,
                     double sim_witness, double sim_syntax,
                     const PretrainObjectives& objectives);

  // Predicted similarities for a pair (inference; no gradients).
  struct Similarities {
    float rank = 0.0f;
    float witness = 0.0f;
    float syntax = 0.0f;
  };
  Similarities PredictSimilarities(const EncodedPair& pair) const;

  // --- Fine-tuning (Shapley regression) ---

  // One (query, tuple, fact) sample; `target` is the Shapley value already
  // scaled (×1000 per the paper). Returns the sample loss.
  float FinetuneStep(const EncodedPair& input, float target);

  // Predicted (scaled) Shapley value, with a call-local arena.
  float PredictShapley(const EncodedPair& input) const;

  // The same prediction with all intermediates from the caller's
  // per-thread arena, which serving reuses across calls.
  float PredictShapley(const EncodedPair& input, InferenceArena& arena) const;

  std::vector<Param*> Params();

  // Deep snapshot/restore of all weights, for best-checkpoint selection.
  std::vector<Tensor> SnapshotWeights();
  void RestoreWeights(const std::vector<Tensor>& snapshot);

  const EncoderConfig& encoder_config() const { return encoder_.config(); }
  const TransformerEncoder& encoder() const { return encoder_; }
  const Linear& head_shapley() const { return head_shapley_; }

 private:
  // The encoder forward up to the [CLS] row (an arena slot); every head
  // reads that row alone, so the last block computes it alone. Training
  // steps pass `record`, then hand it to the encoder's Backward with the
  // 1-row d[CLS].
  const Tensor& Cls(const EncodedPair& input, InferenceArena& arena,
                    EncoderRecord* record = nullptr) const;

  TransformerEncoder encoder_;
  Linear head_rank_;
  Linear head_witness_;
  Linear head_syntax_;
  Linear head_shapley_;
};

// Int8 quantized snapshot of a trained LearnShapleyModel's inference path:
// the encoder plus the Shapley head (the similarity heads are pre-training
// only). Immutable and thread-safe to share; callers bring a QuantScratch.
class QuantizedShapleyModel {
 public:
  QuantizedShapleyModel() = default;

  static QuantizedShapleyModel FromModel(const LearnShapleyModel& model);

  // Quantized counterpart of LearnShapleyModel::PredictShapley.
  float PredictShapley(const EncodedPair& input, QuantScratch& scratch) const;

 private:
  QuantizedEncoder encoder_;
  QuantizedLinear head_shapley_;
};

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_MODEL_H_
