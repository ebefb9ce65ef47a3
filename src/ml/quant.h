#ifndef LSHAP_ML_QUANT_H_
#define LSHAP_ML_QUANT_H_

#include <cstdint>
#include <vector>

#include "ml/encoder.h"
#include "ml/simd.h"

namespace lshap {

// Int8 quantized inference for the MiniBERT encoder (DESIGN.md §12).
//
// Scheme: per-output-channel symmetric weight quantization (scale_j =
// max_i |W[i][j]| / 127), weights repacked transposed into a blocked
// [out][in_pad] row-major layout (in_pad rounded up to kInt8BlockElems so
// every channel row is one run of whole 256-bit vectors), dynamic per-row
// symmetric activation quantization with clamping to ±127, int32
// accumulation, float epilogue y_j = acc_j·(act_scale·scale_j) + bias_j.
// Embeddings, LayerNorms, residual adds, and attention score/value products
// stay float; softmax and GELU go through the SIMD kernel table.
//
// Everything here is immutable after construction and safe to share across
// threads; per-call scratch lives in the caller's QuantScratch.

// One repacked int8 affine layer.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;

  // Quantizes a float Linear given its in×out weight and 1×out bias.
  static QuantizedLinear FromFloat(const Tensor& w, const Tensor& b);

  // y[j] = dot_i8(qx, row_j)·(act_scale·scale_j) + bias_j for all out
  // channels. qx must hold in_pad() codes (zero-padded tail).
  void Forward(const int8_t* qx, float act_scale, float* y) const;

  size_t in() const { return in_; }
  size_t out() const { return out_; }
  size_t in_pad() const { return in_pad_; }
  const std::vector<float>& scales() const { return scales_; }
  const std::vector<int8_t>& weights() const { return weights_; }

 private:
  size_t in_ = 0;
  size_t out_ = 0;
  size_t in_pad_ = 0;           // in_ rounded up to kInt8BlockElems
  std::vector<float> scales_;   // out_
  std::vector<float> bias_;     // out_
  std::vector<int8_t> weights_; // out_ × in_pad_, channel-major
};

// Per-thread scratch for quantized forwards: a float-tensor arena plus a
// reusable padded int8 row buffer.
struct QuantScratch {
  InferenceArena arena;
  std::vector<int8_t> qrow;

  // Returns a zeroed row buffer of at least `in_pad` codes.
  int8_t* Row(size_t in_pad) {
    qrow.assign(in_pad, 0);
    return qrow.data();
  }
  void Reset() { arena.Reset(); }
};

// Quantizes every row of `x` and runs it through `lin`, writing an
// x.rows()×lin.out() result into `y`. The workhorse of the layer below.
void QuantizedLinearForward(const QuantizedLinear& lin, const Tensor& x,
                            QuantScratch& scratch, Tensor& y);

struct QuantizedTransformerLayer {
  LayerNorm ln1, ln2;  // the float encoder's, run as is
  QuantizedLinear q_proj, k_proj, v_proj, out_proj;
  QuantizedLinear ffn1, ffn2;
  size_t num_heads = 0;

  // As TransformerLayer::ForwardInference: only the first
  // min(out_rows, x.rows()) rows are computed past the k/v projections.
  void Forward(const Tensor& x, const std::vector<bool>& mask,
               QuantScratch& scratch, Tensor& out,
               size_t out_rows = kAllRows) const;
};

// The full quantized MiniBERT: the float encoder's embedding lookup and
// LayerNorms, int8 affine layers, SIMD softmax/GELU.
class QuantizedEncoder {
 public:
  QuantizedEncoder() = default;

  static QuantizedEncoder FromEncoder(const TransformerEncoder& enc);

  // As TransformerEncoder::ForwardInference: `out` receives the first
  // min(out_rows, ids.size()) rows, and only the last block drops rows.
  void Forward(const std::vector<int>& ids, const std::vector<bool>& mask,
               QuantScratch& scratch, Tensor& out,
               size_t out_rows = kAllRows) const;

  const EncoderConfig& config() const { return config_; }

 private:
  EncoderConfig config_;
  Tensor tok_table_;  // vocab×dim
  Tensor pos_table_;  // max_len×dim
  std::vector<QuantizedTransformerLayer> layers_;
  LayerNorm final_ln_;
};

}  // namespace lshap

#endif  // LSHAP_ML_QUANT_H_
