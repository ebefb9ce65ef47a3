#include "ml/quant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lshap {

namespace {

size_t PadToBlock(size_t n) {
  return (n + kInt8BlockElems - 1) / kInt8BlockElems * kInt8BlockElems;
}

}  // namespace

// ------------------------------------------------------- QuantizedLinear

QuantizedLinear QuantizedLinear::FromFloat(const Tensor& w, const Tensor& b) {
  LSHAP_CHECK_EQ(b.rows(), 1u);
  LSHAP_CHECK_EQ(b.cols(), w.cols());
  QuantizedLinear q;
  q.in_ = w.rows();
  q.out_ = w.cols();
  q.in_pad_ = PadToBlock(q.in_);
  q.scales_.resize(q.out_);
  q.bias_.assign(b.row_data(0), b.row_data(0) + q.out_);
  q.weights_.assign(q.out_ * q.in_pad_, 0);
  for (size_t j = 0; j < q.out_; ++j) {
    float amax = 0.0f;
    for (size_t i = 0; i < q.in_; ++i) {
      amax = std::max(amax, std::fabs(w.at(i, j)));
    }
    if (amax == 0.0f) {
      q.scales_[j] = 0.0f;
      continue;  // channel row stays all-zero
    }
    const float scale = amax / 127.0f;
    const float inv = 127.0f / amax;
    q.scales_[j] = scale;
    int8_t* row = q.weights_.data() + j * q.in_pad_;
    for (size_t i = 0; i < q.in_; ++i) {
      float code = std::nearbyint(w.at(i, j) * inv);
      code = std::min(code, 127.0f);
      code = std::max(code, -127.0f);
      row[i] = static_cast<int8_t>(code);
    }
  }
  return q;
}

void QuantizedLinear::Forward(const int8_t* qx, float act_scale,
                              float* y) const {
  const auto& kernels = SimdKernels();
  const int8_t* row = weights_.data();
  for (size_t j = 0; j < out_; ++j, row += in_pad_) {
    const int32_t acc = kernels.dot_i8(qx, row, in_pad_);
    y[j] = static_cast<float>(acc) * (act_scale * scales_[j]) + bias_[j];
  }
}

void QuantizedLinearForward(const QuantizedLinear& lin, const Tensor& x,
                            QuantScratch& scratch, Tensor& y) {
  LSHAP_CHECK_EQ(x.cols(), lin.in());
  y.Resize(x.rows(), lin.out());
  const auto& kernels = SimdKernels();
  int8_t* qx = scratch.Row(lin.in_pad());
  for (size_t r = 0; r < x.rows(); ++r) {
    float act_scale = 0.0f;
    kernels.quantize_row(x.row_data(r), x.cols(), qx, &act_scale);
    lin.Forward(qx, act_scale, y.row_data(r));
  }
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

  // One row quantization feeds all three projections; keys and values
  // cover every position, queries only the rows read.
  Tensor& q = arena.Get(m, dim);
  Tensor& k = arena.Get(n, dim);
  Tensor& v = arena.Get(n, dim);
  {
    int8_t* qx = scratch.Row(q_proj.in_pad());
    for (size_t r = 0; r < n; ++r) {
      float act_scale = 0.0f;
      kernels.quantize_row(ln1_out.row_data(r), dim, qx, &act_scale);
      if (r < m) q_proj.Forward(qx, act_scale, q.row_data(r));
      k_proj.Forward(qx, act_scale, k.row_data(r));
      v_proj.Forward(qx, act_scale, v.row_data(r));
    }
  }

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
