#include "ml/quant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lshap {

// ------------------------------------------------------- QuantizedLinear

QuantizedLinear QuantizedLinear::FromFloat(const Tensor& w, const Tensor& b) {
  LSHAP_CHECK_EQ(b.rows(), 1u);
  LSHAP_CHECK_EQ(b.cols(), w.cols());
  QuantizedLinear q;
  q.in_ = w.rows();
  q.out_ = w.cols();
  q.scales_.resize(q.out_);
  q.bias_.assign(b.row_data(0), b.row_data(0) + q.out_);
  q.packed_.assign(GemmI8PackedSize(q.in_, q.out_), 0);
  for (size_t j = 0; j < q.out_; ++j) {
    float amax = 0.0f;
    for (size_t i = 0; i < q.in_; ++i) {
      amax = std::max(amax, std::fabs(w.at(i, j)));
    }
    if (amax == 0.0f) {
      q.scales_[j] = 0.0f;
      continue;  // channel stays all-zero
    }
    const float scale = amax / 127.0f;
    const float inv = 127.0f / amax;
    q.scales_[j] = scale;
    for (size_t i = 0; i < q.in_; ++i) {
      float code = std::nearbyint(w.at(i, j) * inv);
      code = std::min(code, 127.0f);
      code = std::max(code, -127.0f);
      q.packed_[GemmI8PackedIndex(i, j, q.in_)] = static_cast<int16_t>(code);
    }
  }
  return q;
}

void QuantizedLinear::Forward(size_t rows, QuantScratch& scratch,
                              Tensor& y) const {
  LSHAP_CHECK_EQ(scratch.codes.size(), scratch.act_scales.size() * in_);
  LSHAP_CHECK_LE(rows, scratch.act_scales.size());
  scratch.sums.resize(rows * out_);
  SimdKernels().gemm_i8(scratch.codes.data(), in_, packed_.data(),
                        scratch.sums.data(), out_, rows, in_, out_);
  y.Resize(rows, out_);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t* acc = scratch.sums.data() + r * out_;
    const float act_scale = scratch.act_scales[r];
    float* yr = y.row_data(r);
    for (size_t j = 0; j < out_; ++j) {
      yr[j] = static_cast<float>(acc[j]) * (act_scale * scales_[j]) +
              bias_[j];
    }
  }
}

void QuantizeRows(const Tensor& x, QuantScratch& scratch) {
  const size_t rows = x.rows();
  const size_t cols = x.cols();
  scratch.codes.resize(rows * cols);
  scratch.act_scales.resize(rows);
  const auto& kernels = SimdKernels();
  for (size_t r = 0; r < rows; ++r) {
    kernels.quantize_row(x.row_data(r), cols, scratch.codes.data() + r * cols,
                         &scratch.act_scales[r]);
  }
}

void QuantizedLinearForward(const QuantizedLinear& lin, const Tensor& x,
                            QuantScratch& scratch, Tensor& y) {
  QuantizeRows(x, scratch);
  lin.Forward(x.rows(), scratch, y);
}

// ----------------------------------------------- QuantizedTransformerLayer

void QuantizedTransformerLayer::Forward(const Tensor& x,
                                        const std::vector<bool>& mask,
                                        QuantScratch& scratch, Tensor& out,
                                        size_t out_rows) const {
  const size_t n = x.rows();
  const size_t m = std::min(out_rows, n);
  const size_t dim = x.cols();
  const auto& kernels = SimdKernels();
  InferenceArena& arena = scratch.arena;

  Tensor& ln1_out = arena.Get(n, dim);
  ln1.ForwardInference(x, ln1_out);

  // One quantization of LN1's rows feeds all three projections; keys and
  // values cover every position, queries only the rows read.
  Tensor& q = arena.Get(m, dim);
  Tensor& k = arena.Get(n, dim);
  Tensor& v = arena.Get(n, dim);
  QuantizeRows(ln1_out, scratch);
  q_proj.Forward(m, scratch, q);
  k_proj.Forward(n, scratch, k);
  v_proj.Forward(n, scratch, v);

  Tensor& concat = arena.Get(m, dim);
  AttentionCore(q, k, v, mask, num_heads, arena, concat);

  Tensor& attn_out = arena.Get(m, dim);
  QuantizedLinearForward(out_proj, concat, scratch, attn_out);
  Tensor& h = arena.Get(m, dim);
  h.AssignTopRows(x, m);
  h.Add(attn_out);

  Tensor& ln2_out = arena.Get(m, dim);
  ln2.ForwardInference(h, ln2_out);
  Tensor& ffn1_out = arena.Get(1, 1);
  QuantizedLinearForward(ffn1, ln2_out, scratch, ffn1_out);
  kernels.gelu(ffn1_out.data(), ffn1_out.size());
  Tensor& ffn2_out = arena.Get(1, 1);
  QuantizedLinearForward(ffn2, ffn1_out, scratch, ffn2_out);
  out = h;
  out.Add(ffn2_out);
}

// ------------------------------------------------------- QuantizedEncoder

QuantizedEncoder QuantizedEncoder::FromEncoder(const TransformerEncoder& enc) {
  QuantizedEncoder q;
  q.config_ = enc.config();
  q.tok_table_ = enc.tok_emb().table();
  q.pos_table_ = enc.pos_emb().table();
  q.final_ln_ = enc.final_ln();
  q.layers_.resize(enc.layers().size());
  for (size_t l = 0; l < enc.layers().size(); ++l) {
    const TransformerLayer& src = enc.layers()[l];
    QuantizedTransformerLayer& dst = q.layers_[l];
    dst.ln1 = src.ln1();
    dst.ln2 = src.ln2();
    dst.num_heads = src.attn().num_heads();
    dst.q_proj = QuantizedLinear::FromFloat(src.attn().q_proj().w().value,
                                            src.attn().q_proj().b().value);
    dst.k_proj = QuantizedLinear::FromFloat(src.attn().k_proj().w().value,
                                            src.attn().k_proj().b().value);
    dst.v_proj = QuantizedLinear::FromFloat(src.attn().v_proj().w().value,
                                            src.attn().v_proj().b().value);
    dst.out_proj = QuantizedLinear::FromFloat(src.attn().out_proj().w().value,
                                              src.attn().out_proj().b().value);
    dst.ffn1 = QuantizedLinear::FromFloat(src.ffn1().w().value,
                                          src.ffn1().b().value);
    dst.ffn2 = QuantizedLinear::FromFloat(src.ffn2().w().value,
                                          src.ffn2().b().value);
  }
  return q;
}

void QuantizedEncoder::Forward(const std::vector<int>& ids,
                               const std::vector<bool>& mask,
                               QuantScratch& scratch, Tensor& out,
                               size_t out_rows) const {
  LSHAP_CHECK_EQ(ids.size(), mask.size());
  const size_t n = ids.size();
  const size_t dim = config_.dim;
  InferenceArena& arena = scratch.arena;
  Tensor& h0 = arena.Get(n, dim);
  TransformerEncoder::Embed(tok_table_, pos_table_, ids, h0);
  const Tensor* cur = &h0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const size_t rows = l + 1 == layers_.size() ? out_rows : kAllRows;
    Tensor& next = arena.Get(n, dim);
    layers_[l].Forward(*cur, mask, scratch, next, rows);
    cur = &next;
  }
  final_ln_.ForwardInference(*cur, out);
}

}  // namespace lshap
