#include "learnshapley/model.h"

namespace lshap {

LearnShapleyModel::LearnShapleyModel(const EncoderConfig& encoder_config,
                                     uint64_t seed) {
  EncoderConfig cfg = encoder_config;
  cfg.seed = seed;
  encoder_ = TransformerEncoder(cfg);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  head_rank_ = Linear(cfg.dim, 1, rng);
  head_witness_ = Linear(cfg.dim, 1, rng);
  head_syntax_ = Linear(cfg.dim, 1, rng);
  head_shapley_ = Linear(cfg.dim, 1, rng);
}

namespace {

// Per-thread workspace of the training steps: the forward's arena and the
// activation record Backward reads. Reusing it keeps its buffers' capacity
// from step to step; the model itself holds no activations.
struct TrainingWorkspace {
  InferenceArena arena;
  EncoderRecord record;
};

TrainingWorkspace& TlsTrainingWorkspace() {
  thread_local TrainingWorkspace workspace;
  workspace.arena.Reset();
  return workspace;
}

}  // namespace

const Tensor& LearnShapleyModel::Cls(const EncodedPair& input,
                                     InferenceArena& arena,
                                     EncoderRecord* record) const {
  Tensor& cls = arena.Get(1, encoder_.config().dim);
  encoder_.ForwardInference(input.ids, input.mask, arena, cls, record, 1);
  return cls;
}

float LearnShapleyModel::PretrainStep(const EncodedPair& pair,
                                      double sim_rank, double sim_witness,
                                      double sim_syntax,
                                      const PretrainObjectives& objectives) {
  TrainingWorkspace& ws = TlsTrainingWorkspace();
  const Tensor& cls = Cls(pair, ws.arena, &ws.record);

  float loss = 0.0f;
  Tensor d_cls(1, cls.cols());
  Tensor& pred = ws.arena.Get(1, 1);
  auto run_head = [&](Linear& head, double target) {
    head.ForwardInference(cls, pred);
    const float err = pred.at(0, 0) - static_cast<float>(target);
    loss += err * err;
    Tensor d_pred(1, 1);
    d_pred.at(0, 0) = 2.0f * err;
    d_cls.Add(head.Backward(cls, d_pred));
  };
  if (objectives.rank) run_head(head_rank_, sim_rank);
  if (objectives.witness) run_head(head_witness_, sim_witness);
  if (objectives.syntax) run_head(head_syntax_, sim_syntax);

  encoder_.Backward(ws.record, d_cls);
  return loss;
}

LearnShapleyModel::Similarities LearnShapleyModel::PredictSimilarities(
    const EncodedPair& pair) const {
  InferenceArena arena;
  const Tensor& cls = Cls(pair, arena);
  Tensor& pred = arena.Get(1, 1);
  Similarities out;
  head_rank_.ForwardInference(cls, pred);
  out.rank = pred.at(0, 0);
  head_witness_.ForwardInference(cls, pred);
  out.witness = pred.at(0, 0);
  head_syntax_.ForwardInference(cls, pred);
  out.syntax = pred.at(0, 0);
  return out;
}

float LearnShapleyModel::FinetuneStep(const EncodedPair& input, float target) {
  TrainingWorkspace& ws = TlsTrainingWorkspace();
  const Tensor& cls = Cls(input, ws.arena, &ws.record);
  Tensor& pred = ws.arena.Get(1, 1);
  head_shapley_.ForwardInference(cls, pred);
  const float err = pred.at(0, 0) - target;

  Tensor d_pred(1, 1);
  d_pred.at(0, 0) = 2.0f * err;
  encoder_.Backward(ws.record, head_shapley_.Backward(cls, d_pred));
  return err * err;
}

float LearnShapleyModel::PredictShapley(const EncodedPair& input) const {
  InferenceArena arena;
  return PredictShapley(input, arena);
}

float LearnShapleyModel::PredictShapley(const EncodedPair& input,
                                        InferenceArena& arena) const {
  arena.Reset();
  const Tensor& cls = Cls(input, arena);
  Tensor& pred = arena.Get(1, 1);
  head_shapley_.ForwardInference(cls, pred);
  return pred.at(0, 0);
}

std::vector<Param*> LearnShapleyModel::Params() {
  std::vector<Param*> params = encoder_.Params();
  head_rank_.CollectParams(params);
  head_witness_.CollectParams(params);
  head_syntax_.CollectParams(params);
  head_shapley_.CollectParams(params);
  return params;
}

std::vector<Tensor> LearnShapleyModel::SnapshotWeights() {
  std::vector<Tensor> out;
  for (Param* p : Params()) out.push_back(p->value);
  return out;
}

void LearnShapleyModel::RestoreWeights(const std::vector<Tensor>& snapshot) {
  std::vector<Param*> params = Params();
  LSHAP_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

// ------------------------------------------------- QuantizedShapleyModel

QuantizedShapleyModel QuantizedShapleyModel::FromModel(
    const LearnShapleyModel& model) {
  QuantizedShapleyModel q;
  q.encoder_ = QuantizedEncoder::FromEncoder(model.encoder());
  q.head_shapley_ = QuantizedLinear::FromFloat(
      model.head_shapley().w().value, model.head_shapley().b().value);
  return q;
}

float QuantizedShapleyModel::PredictShapley(const EncodedPair& input,
                                            QuantScratch& scratch) const {
  scratch.Reset();
  Tensor& hidden =
      scratch.arena.Get(input.ids.size(), encoder_.config().dim);
  encoder_.Forward(input.ids, input.mask, scratch, hidden, 1);
  // [CLS] row → quantize → Shapley head.
  Tensor& pred = scratch.arena.Get(1, 1);
  QuantizedLinearForward(head_shapley_, hidden, scratch, pred);
  return pred.at(0, 0);
}

}  // namespace lshap
