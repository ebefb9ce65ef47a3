#include "ml/layers.h"

#include <algorithm>
#include <cmath>

#include "ml/simd.h"

namespace lshap {

// ---------------------------------------------------------------- Linear

Linear::Linear(size_t in, size_t out, Rng& rng) {
  // Xavier-style init.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in + out));
  w_.Init(Tensor::Randn(in, out, stddev, rng));
  b_.Init(Tensor::Zeros(1, out));
}

void Linear::ForwardInference(const Tensor& x, Tensor& y) const {
  MatMulInto(x, w_.value, y);
  AddRowBroadcast(y, b_.value);
}

Tensor Linear::Backward(const Tensor& x, const Tensor& dy) {
  // dW = xᵀ·dy ; db = column sums of dy ; dx = dy·Wᵀ.
  Tensor dw = MatMulATB(x, dy);
  w_.grad.Add(dw);
  for (size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.row_data(r);
    float* g = b_.grad.row_data(0);
    for (size_t c = 0; c < dy.cols(); ++c) g[c] += row[c];
  }
  return MatMulABT(dy, w_.value);
}

void Linear::CollectParams(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ------------------------------------------------------------- Embedding

Embedding::Embedding(size_t vocab, size_t dim, Rng& rng) {
  table_.Init(Tensor::Randn(vocab, dim, 0.02f, rng));
}

void Embedding::Backward(const std::vector<int>& ids, const Tensor& dy) {
  LSHAP_CHECK_EQ(dy.rows(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    float* g = table_.grad.row_data(static_cast<size_t>(ids[i]));
    const float* src = dy.row_data(i);
    for (size_t c = 0; c < dy.cols(); ++c) g[c] += src[c];
  }
}

void Embedding::CollectParams(std::vector<Param*>& out) {
  out.push_back(&table_);
}

// ------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(size_t dim) {
  Tensor ones(1, dim);
  ones.Fill(1.0f);
  gamma_.Init(std::move(ones));
  beta_.Init(Tensor::Zeros(1, dim));
}

void LayerNorm::ForwardInference(const Tensor& x, Tensor& y,
                                 LayerNormRecord* record) const {
  const size_t n = x.rows();
  const size_t d = x.cols();
  y.Resize(n, d);
  if (record != nullptr) {
    record->xhat.Resize(n, d);
    record->rstd.assign(n, 0.0f);
  }
  for (size_t r = 0; r < n; ++r) {
    const float* row = x.row_data(r);
    float mean = 0.0f;
    for (size_t c = 0; c < d; ++c) mean += row[c];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (size_t c = 0; c < d; ++c) {
      const float diff = row[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<float>(d);
    const float rstd = 1.0f / std::sqrt(var + 1e-5f);
    float* out = y.row_data(r);
    const float* g = gamma_.value.row_data(0);
    const float* b = beta_.value.row_data(0);
    for (size_t c = 0; c < d; ++c) {
      const float xh = (row[c] - mean) * rstd;
      out[c] = xh * g[c] + b[c];
    }
    if (record != nullptr) {
      // The same expression as xh above, so Backward sees the exact values
      // the output was built from.
      record->rstd[r] = rstd;
      float* xh = record->xhat.row_data(r);
      for (size_t c = 0; c < d; ++c) xh[c] = (row[c] - mean) * rstd;
    }
  }
}

Tensor LayerNorm::Backward(const LayerNormRecord& record, const Tensor& dy) {
  const size_t n = dy.rows();
  const size_t d = dy.cols();
  LSHAP_CHECK_EQ(record.rstd.size(), n);
  Tensor dx(n, d);
  const float* g = gamma_.value.row_data(0);
  for (size_t r = 0; r < n; ++r) {
    const float* dyr = dy.row_data(r);
    const float* xh = record.xhat.row_data(r);
    float* gg = gamma_.grad.row_data(0);
    float* bg = beta_.grad.row_data(0);
    float sum_dxhat = 0.0f;
    float sum_dxhat_xhat = 0.0f;
    for (size_t c = 0; c < d; ++c) {
      gg[c] += dyr[c] * xh[c];
      bg[c] += dyr[c];
      const float dxhat = dyr[c] * g[c];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[c];
    }
    const float inv_d = 1.0f / static_cast<float>(d);
    float* dxr = dx.row_data(r);
    for (size_t c = 0; c < d; ++c) {
      const float dxhat = dyr[c] * g[c];
      dxr[c] = record.rstd[r] *
               (dxhat - inv_d * sum_dxhat - xh[c] * inv_d * sum_dxhat_xhat);
    }
  }
  return dx;
}

void LayerNorm::CollectParams(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ------------------------------------------------------------------ Gelu

void Gelu::ForwardInference(const Tensor& x, Tensor& y) {
  y.AssignTopRows(x, x.rows());
  SimdKernels().gelu(y.data(), y.size());
}

Tensor Gelu::Backward(const Tensor& x, const Tensor& dy) {
  LSHAP_CHECK_EQ(x.size(), dy.size());
  Tensor dx(dy.rows(), dy.cols());
  SimdKernels().gelu_backward(x.data(), dy.data(), dx.data(), dx.size());
  return dx;
}

// -------------------------------------------------- MultiHeadSelfAttention

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      q_proj_(dim, dim, rng),
      k_proj_(dim, dim, rng),
      v_proj_(dim, dim, rng),
      out_proj_(dim, dim, rng) {
  LSHAP_CHECK_EQ(head_dim_ * num_heads_, dim_);
}

void AttentionCore(const Tensor& q, const Tensor& k, const Tensor& v,
                   const std::vector<bool>& mask, size_t num_heads,
                   InferenceArena& arena, Tensor& concat,
                   std::vector<Tensor>* attn) {
  const size_t m = q.rows();
  const size_t n = k.rows();
  const size_t dim = q.cols();
  const size_t head_dim = dim / num_heads;
  LSHAP_CHECK_EQ(head_dim * num_heads, dim);
  LSHAP_CHECK_EQ(v.rows(), n);
  LSHAP_CHECK_EQ(mask.size(), n);
  concat.Resize(m, dim);
  // Kᵀ once, so each head's K_hᵀ is a block of rows with row stride n.
  Tensor& kt = arena.Get(dim, n);
  TransposeInto(k, kt);
  Tensor& scores = arena.Get(m, n);
  if (attn != nullptr) attn->resize(num_heads);
  const SimdKernelTable& kernels = SimdKernels();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  for (size_t h = 0; h < num_heads; ++h) {
    const size_t off = h * head_dim;
    // Scores: s = q_h · K_hᵀ, then × scale; masked keys get -1e30.
    kernels.gemm_f32(q.data() + off, dim, 1, kt.row_data(off), n,
                     scores.data(), n, m, head_dim, n);
    float* s = scores.data();
    for (size_t e = 0; e < m * n; ++e) s[e] *= scale;
    for (size_t j = 0; j < n; ++j) {
      if (mask[j]) continue;
      for (size_t i = 0; i < m; ++i) s[i * n + j] = -1e30f;
    }
    for (size_t i = 0; i < m; ++i) kernels.softmax(scores.row_data(i), n);
    if (attn != nullptr) (*attn)[h] = scores;
    // Head output: attn · V_h, written into this head's columns of concat.
    kernels.gemm_f32(scores.data(), n, 1, v.data() + off, dim,
                     concat.data() + off, dim, m, n, head_dim);
  }
}

void MultiHeadSelfAttention::ForwardInference(const Tensor& x,
                                              const std::vector<bool>& mask,
                                              InferenceArena& arena,
                                              Tensor& out,
                                              AttentionRecord* record,
                                              size_t out_rows) const {
  const size_t n = x.rows();
  const size_t m = std::min(out_rows, n);
  // Keys and values cover every position; queries only the rows read.
  const Tensor* xq = &x;
  if (m < n) {
    Tensor& top = arena.Get(m, dim_);
    top.AssignTopRows(x, m);
    xq = &top;
  }
  Tensor& q = arena.Get(m, dim_);
  Tensor& k = arena.Get(n, dim_);
  Tensor& v = arena.Get(n, dim_);
  q_proj_.ForwardInference(*xq, q);
  k_proj_.ForwardInference(x, k);
  v_proj_.ForwardInference(x, v);
  if (record != nullptr) {
    record->x = x;
    record->q = q;
    record->k = k;
    record->v = v;
  }

  Tensor& concat = arena.Get(m, dim_);
  AttentionCore(q, k, v, mask, num_heads_, arena, concat,
                record ? &record->attn : nullptr);
  if (record != nullptr) record->concat = concat;
  out_proj_.ForwardInference(concat, out);
}

Tensor MultiHeadSelfAttention::Backward(const AttentionRecord& record,
                                        const Tensor& dy) {
  // m query rows were computed, over n keys and values.
  const size_t m = dy.rows();
  const size_t n = record.x.rows();
  Tensor d_concat = out_proj_.Backward(record.concat, dy);

  Tensor dq(m, dim_);
  Tensor dk(n, dim_);
  Tensor dv(n, dim_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Vᵀ once, so each head's V_hᵀ is a block of rows with row stride n.
  Tensor vt;
  TransposeInto(record.v, vt);
  Tensor d_attn(m, n);
  const auto gemm = SimdKernels().gemm_f32;
  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t off = h * head_dim_;
    const Tensor& attn = record.attn[h];
    const float* d_out = d_concat.data() + off;

    // d_attn = dO_h · V_hᵀ;  dV_h = attnᵀ · dO_h.
    gemm(d_out, dim_, 1, vt.row_data(off), n, d_attn.data(), n, m, head_dim_,
         n);
    gemm(attn.data(), 1, n, d_out, dim_, dv.data() + off, dim_, n, m,
         head_dim_);
    // Softmax backward per row, ds = a ⊙ (d_attn − Σ_j a_j d_attn_j), and
    // the score scale: S = ds · scale.
    for (size_t i = 0; i < m; ++i) {
      const float* arow = attn.row_data(i);
      float* darow = d_attn.row_data(i);
      float dot = 0.0f;
      for (size_t j = 0; j < n; ++j) dot += arow[j] * darow[j];
      for (size_t j = 0; j < n; ++j) {
        const float ds = arow[j] * (darow[j] - dot);
        darow[j] = ds * scale;
      }
    }
    // Scores backward: dQ_h = S · K_h;  dK_h = Sᵀ · Q_h.
    gemm(d_attn.data(), n, 1, record.k.data() + off, dim_, dq.data() + off,
         dim_, m, n, head_dim_);
    gemm(d_attn.data(), 1, n, record.q.data() + off, dim_, dk.data() + off,
         dim_, n, m, head_dim_);
  }

  // The q projection read only the first m input rows.
  const Tensor* xq = &record.x;
  Tensor top;
  if (m < n) {
    top.AssignTopRows(record.x, m);
    xq = &top;
  }
  Tensor dx(n, dim_);
  dx.AddTopRows(q_proj_.Backward(*xq, dq));
  dx.Add(k_proj_.Backward(record.x, dk));
  dx.Add(v_proj_.Backward(record.x, dv));
  return dx;
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>& out) {
  q_proj_.CollectParams(out);
  k_proj_.CollectParams(out);
  v_proj_.CollectParams(out);
  out_proj_.CollectParams(out);
}

// ------------------------------------------------------- TransformerLayer

TransformerLayer::TransformerLayer(size_t dim, size_t num_heads,
                                   size_t ffn_dim, Rng& rng)
    : ln1_(dim),
      ln2_(dim),
      attn_(dim, num_heads, rng),
      ffn1_(dim, ffn_dim, rng),
      ffn2_(ffn_dim, dim, rng) {}

void TransformerLayer::ForwardInference(const Tensor& x,
                                        const std::vector<bool>& mask,
                                        InferenceArena& arena, Tensor& out,
                                        TransformerLayerRecord* record,
                                        size_t out_rows) const {
  const size_t m = std::min(out_rows, x.rows());
  Tensor& ln1_out = arena.Get(x.rows(), x.cols());
  ln1_.ForwardInference(x, ln1_out, record ? &record->ln1 : nullptr);
  Tensor& attn_out = arena.Get(m, x.cols());
  attn_.ForwardInference(ln1_out, mask, arena, attn_out,
                         record ? &record->attn : nullptr, m);
  Tensor& h = arena.Get(m, x.cols());
  h.AssignTopRows(x, m);
  h.Add(attn_out);

  Tensor& ln2_out = arena.Get(h.rows(), h.cols());
  ln2_.ForwardInference(h, ln2_out, record ? &record->ln2 : nullptr);
  Tensor& ffn1_out = arena.Get(1, 1);
  ffn1_.ForwardInference(ln2_out, ffn1_out);
  Tensor& gelu_out = arena.Get(1, 1);
  Gelu::ForwardInference(ffn1_out, gelu_out);
  Tensor& ffn2_out = arena.Get(1, 1);
  ffn2_.ForwardInference(gelu_out, ffn2_out);
  out = h;
  out.Add(ffn2_out);
  if (record != nullptr) {
    record->ln2_out = ln2_out;
    record->ffn1_out = ffn1_out;
    record->gelu_out = gelu_out;
  }
}

Tensor TransformerLayer::Backward(const TransformerLayerRecord& record,
                                  const Tensor& dy) {
  // FFN residual branch.
  Tensor d_ffn = ln2_.Backward(
      record.ln2,
      ffn1_.Backward(record.ln2_out,
                     Gelu::Backward(record.ffn1_out,
                                    ffn2_.Backward(record.gelu_out, dy))));
  Tensor dh = dy;
  dh.Add(d_ffn);
  // Attention residual branch. The residual reaches only the computed rows;
  // attention reaches every input row.
  Tensor dx = ln1_.Backward(record.ln1, attn_.Backward(record.attn, dh));
  dx.AddTopRows(dh);
  return dx;
}

void TransformerLayer::CollectParams(std::vector<Param*>& out) {
  ln1_.CollectParams(out);
  ln2_.CollectParams(out);
  attn_.CollectParams(out);
  ffn1_.CollectParams(out);
  ffn2_.CollectParams(out);
}

}  // namespace lshap
