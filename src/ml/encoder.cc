#include "ml/encoder.h"

namespace lshap {

EncoderConfig EncoderConfig::Base(size_t vocab_size) {
  EncoderConfig c;
  c.vocab_size = vocab_size;
  c.dim = 48;
  c.num_heads = 4;
  c.num_layers = 2;
  c.ffn_dim = 96;
  c.max_len = 80;
  return c;
}

EncoderConfig EncoderConfig::Large(size_t vocab_size) {
  EncoderConfig c;
  c.vocab_size = vocab_size;
  c.dim = 64;
  c.num_heads = 8;
  c.num_layers = 3;
  c.ffn_dim = 128;
  c.max_len = 80;
  return c;
}

EncoderConfig EncoderConfig::SmallAblation(size_t vocab_size) {
  EncoderConfig c;
  c.vocab_size = vocab_size;
  c.dim = 32;
  c.num_heads = 4;
  c.num_layers = 1;
  c.ffn_dim = 48;
  c.max_len = 80;
  return c;
}

TransformerEncoder::TransformerEncoder(const EncoderConfig& config)
    : config_(config), final_ln_(config.dim) {
  Rng rng(config.seed);
  tok_emb_ = Embedding(config.vocab_size, config.dim, rng);
  pos_emb_ = Embedding(config.max_len, config.dim, rng);
  layers_.reserve(config.num_layers);
  for (size_t i = 0; i < config.num_layers; ++i) {
    layers_.emplace_back(config.dim, config.num_heads, config.ffn_dim, rng);
  }
}

void TransformerEncoder::Embed(const Tensor& tok_table,
                               const Tensor& pos_table,
                               const std::vector<int>& ids, Tensor& out) {
  const size_t n = ids.size();
  const size_t dim = tok_table.cols();
  LSHAP_CHECK_LE(n, pos_table.rows());
  out.Resize(n, dim);
  for (size_t i = 0; i < n; ++i) {
    LSHAP_CHECK_LT(static_cast<size_t>(ids[i]), tok_table.rows());
    const float* src = tok_table.row_data(static_cast<size_t>(ids[i]));
    const float* prow = pos_table.row_data(i);
    float* dst = out.row_data(i);
    for (size_t c = 0; c < dim; ++c) dst[c] = src[c] + prow[c];
  }
}

void TransformerEncoder::ForwardInference(const std::vector<int>& ids,
                                          const std::vector<bool>& mask,
                                          InferenceArena& arena, Tensor& out,
                                          EncoderRecord* record,
                                          size_t out_rows) const {
  LSHAP_CHECK_EQ(ids.size(), mask.size());
  const size_t n = ids.size();
  const size_t dim = config_.dim;
  Tensor& h0 = arena.Get(n, dim);
  Embed(tok_emb_.table(), pos_emb_.table(), ids, h0);
  if (record != nullptr) {
    record->ids = ids;
    record->layers.resize(layers_.size());
  }
  const Tensor* cur = &h0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    // Every block but the last feeds keys and values of all positions on.
    const size_t rows = l + 1 == layers_.size() ? out_rows : kAllRows;
    Tensor& next = arena.Get(n, dim);
    layers_[l].ForwardInference(*cur, mask, arena, next,
                                record ? &record->layers[l] : nullptr, rows);
    cur = &next;
  }
  final_ln_.ForwardInference(*cur, out,
                             record ? &record->final_ln : nullptr);
}

void TransformerEncoder::Backward(const EncoderRecord& record,
                                  const Tensor& d_hidden) {
  Tensor d = final_ln_.Backward(record.final_ln, d_hidden);
  for (size_t l = layers_.size(); l-- > 0;) {
    d = layers_[l].Backward(record.layers[l], d);
  }
  std::vector<int> pos(record.ids.size());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = static_cast<int>(i);
  tok_emb_.Backward(record.ids, d);
  pos_emb_.Backward(pos, d);
}

std::vector<Param*> TransformerEncoder::Params() {
  std::vector<Param*> params;
  tok_emb_.CollectParams(params);
  pos_emb_.CollectParams(params);
  for (auto& layer : layers_) layer.CollectParams(params);
  final_ln_.CollectParams(params);
  return params;
}

}  // namespace lshap
