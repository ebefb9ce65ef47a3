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
// max_i |W[i][j]| / 127), weights packed once into gemm_i8's int16 blocks
// (simd.h), dynamic per-row symmetric activation quantization with clamping
// to ±127, int32 sums from one gemm_i8 call per layer, float epilogue
// y_ij = float(acc_ij)·(act_scale_i·scale_j) + bias_j. Embeddings,
// LayerNorms, residual adds, and attention score/value products stay float;
// softmax and GELU go through the SIMD kernel table.
//
// Everything here is immutable after construction and safe to share across
// threads; per-call scratch lives in the caller's QuantScratch.

// Per-thread scratch for quantized forwards: a float-tensor arena, the
// codes and per-row scales of the last rows quantized, and the int32 sums
// of the last layer run. All of it is reused across calls.
struct QuantScratch {
  InferenceArena arena;
  std::vector<int8_t> codes;      // rows × cols, row-major
  std::vector<float> act_scales;  // one per row
  std::vector<int32_t> sums;      // rows × out

  void Reset() { arena.Reset(); }
};

// Quantizes every row of `x` into scratch.codes and scratch.act_scales,
// for any number of QuantizedLinear::Forward calls.
void QuantizeRows(const Tensor& x, QuantScratch& scratch);

// One int8 affine layer.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;

  // Quantizes a float Linear given its in×out weight and 1×out bias.
  static QuantizedLinear FromFloat(const Tensor& w, const Tensor& b);

  // Runs the first `rows` rows quantized in `scratch` (QuantizeRows, with
  // in() columns) through the layer: one gemm_i8 call, then the float
  // epilogue into the rows×out() tensor `y`.
  void Forward(size_t rows, QuantScratch& scratch, Tensor& y) const;

  size_t in() const { return in_; }
  size_t out() const { return out_; }
  const std::vector<float>& scales() const { return scales_; }
  // The packed code of input i, channel j, for i < GemmI8PadK(in()) and
  // j < GemmI8PadM(out()): w[i][j]'s code inside the layer, 0 in the
  // padding.
  int8_t code(size_t i, size_t j) const {
    return static_cast<int8_t>(packed_[GemmI8PackedIndex(i, j, in_)]);
  }

 private:
  size_t in_ = 0;
  size_t out_ = 0;
  std::vector<float> scales_;    // out_
  std::vector<float> bias_;      // out_
  std::vector<int16_t> packed_;  // GemmI8PackedSize(in_, out_)
};

// Quantizes every row of `x` and runs it through `lin`, writing an
// x.rows()×lin.out() result into `y`.
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
