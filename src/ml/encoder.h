#ifndef LSHAP_ML_ENCODER_H_
#define LSHAP_ML_ENCODER_H_

#include <vector>

#include "ml/layers.h"

namespace lshap {

// Architecture hyper-parameters of the MiniBERT encoder. The two named
// presets mirror the paper's BERT-base / BERT-large distinction at a scale
// trainable from scratch on a laptop (see DESIGN.md substitution table).
struct EncoderConfig {
  size_t vocab_size = 0;     // set from the tokenizer
  size_t max_len = 64;
  size_t dim = 32;
  size_t num_heads = 4;
  size_t num_layers = 2;
  size_t ffn_dim = 64;
  uint64_t seed = 1234;

  static EncoderConfig Base(size_t vocab_size);
  static EncoderConfig Large(size_t vocab_size);
  // The randomly initialized small-transformer ablation of Section 5.5.
  static EncoderConfig SmallAblation(size_t vocab_size);
};

// What TransformerEncoder::Backward reads: the token ids and every
// block's record. Like the forward's output, the last block's record and
// final_ln cover only the rows the forward computed. Owned by the training
// step that runs the forward.
struct EncoderRecord {
  std::vector<int> ids;
  std::vector<TransformerLayerRecord> layers;
  LayerNormRecord final_ln;
};

// A BERT-style bidirectional transformer encoder: learned token + position
// embeddings, pre-LN encoder blocks, final LayerNorm. The [CLS] position
// (row 0) is the sequence representation for regression heads.
class TransformerEncoder {
 public:
  TransformerEncoder() = default;
  explicit TransformerEncoder(const EncoderConfig& config);

  // ids.size() must be ≤ max_len; mask[i] marks non-pad positions. Const,
  // with all intermediates from the caller's arena, so threads share one
  // encoder. A training step passes `record`, then calls Backward with it.
  // `out` receives the first min(out_rows, ids.size()) rows: every block
  // but the last computes all positions, the last block and the final
  // LayerNorm only the rows read.
  void ForwardInference(const std::vector<int>& ids,
                        const std::vector<bool>& mask, InferenceArena& arena,
                        Tensor& out, EncoderRecord* record = nullptr,
                        size_t out_rows = kAllRows) const;
  // Accumulates parameter grads for the forward that filled `record`.
  // `d_hidden` is the gradient of that forward's output rows, so a training
  // step that read only [CLS] passes one row.
  void Backward(const EncoderRecord& record, const Tensor& d_hidden);

  // out[i] = tok_table[ids[i]] + pos_table[i]: the embedding sum that opens
  // the forward. Static so the int8 encoder, which keeps its own copies of
  // the two tables, runs the same lookup.
  static void Embed(const Tensor& tok_table, const Tensor& pos_table,
                    const std::vector<int>& ids, Tensor& out);

  std::vector<Param*> Params();

  const EncoderConfig& config() const { return config_; }
  const Embedding& tok_emb() const { return tok_emb_; }
  const Embedding& pos_emb() const { return pos_emb_; }
  const std::vector<TransformerLayer>& layers() const { return layers_; }
  const LayerNorm& final_ln() const { return final_ln_; }

 private:
  EncoderConfig config_;
  Embedding tok_emb_;
  Embedding pos_emb_;
  std::vector<TransformerLayer> layers_;
  LayerNorm final_ln_;
};

}  // namespace lshap

#endif  // LSHAP_ML_ENCODER_H_
