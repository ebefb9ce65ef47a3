#ifndef LSHAP_ML_LAYERS_H_
#define LSHAP_ML_LAYERS_H_

#include <deque>
#include <vector>

#include "ml/tensor.h"

namespace lshap {

// A trainable weight with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  void Init(Tensor v) {
    grad = Tensor::Zeros(v.rows(), v.cols());
    value = std::move(v);
  }
  void ZeroGrad() { grad.Zero(); }
};

// Caller-provided activation workspace for the const forwards.
// Get() hands out zeroed, reusable tensor slots; Reset() recycles them all
// without freeing. Slots live in a deque so references stay valid as more
// are acquired. One arena per thread — the layers themselves stay untouched,
// which is what makes a single snapshot ranker shareable across workers.
class InferenceArena {
 public:
  Tensor& Get(size_t rows, size_t cols) {
    if (next_ == slots_.size()) slots_.emplace_back();
    Tensor& t = slots_[next_++];
    t.Resize(rows, cols);
    return t;
  }
  void Reset() { next_ = 0; }

 private:
  std::deque<Tensor> slots_;
  size_t next_ = 0;
};

// Each layer has one forward, the const ForwardInference, shared by serving
// and training. Training passes an activation record that the forward fills
// with what Backward reads; Backward of Linear, Gelu and Embedding takes the
// forward input instead. Layers hold parameters, never activations.
//
// The forwards that contain attention (MultiHeadSelfAttention,
// TransformerLayer and both encoders) also take how many leading output rows
// the caller reads, all by default. Attention row i depends on query i and on
// every key and value, and every other stage works row by row, so the rows a
// shorter forward computes carry the same bits as in the full forward. A
// recorded forward records the rows it computes, and Backward takes the
// gradient of those rows only. The rows left out would add only exact zeros
// to gradient sums that start from +0, so no parameter gradient moves a bit.
inline constexpr size_t kAllRows = static_cast<size_t>(-1);

// Affine map y = x·W + b.
class Linear {
 public:
  Linear() = default;
  Linear(size_t in, size_t out, Rng& rng);

  // Writes y = x·W + b into the caller's output.
  void ForwardInference(const Tensor& x, Tensor& y) const;
  // Accumulates parameter grads for the forward input `x`; returns dL/dx.
  Tensor Backward(const Tensor& x, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const Param& w() const { return w_; }
  const Param& b() const { return b_; }

 private:
  Param w_;  // in×out
  Param b_;  // 1×out
};

// Learned token/position embedding table (TransformerEncoder::Embed reads).
class Embedding {
 public:
  Embedding() = default;
  Embedding(size_t vocab, size_t dim, Rng& rng);

  // Adds row i of dy into the gradient of table row ids[i].
  void Backward(const std::vector<int>& ids, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const Tensor& table() const { return table_.value; }

 private:
  Param table_;  // vocab×dim
};

// What LayerNorm::Backward reads: the normalized input and 1/σ per row.
struct LayerNormRecord {
  Tensor xhat;
  std::vector<float> rstd;
};

// Layer normalization over the feature dimension with learned gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(size_t dim);

  void ForwardInference(const Tensor& x, Tensor& y,
                        LayerNormRecord* record = nullptr) const;
  Tensor Backward(const LayerNormRecord& record, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

 private:
  Param gamma_;  // 1×dim
  Param beta_;   // 1×dim
};

// GELU activation (tanh approximation), on the kernel table's gelu and
// gelu_backward. Stateless.
class Gelu {
 public:
  static void ForwardInference(const Tensor& x, Tensor& y);
  // dL/dx for the forward input `x`.
  static Tensor Backward(const Tensor& x, const Tensor& dy);
};

// What MultiHeadSelfAttention::Backward reads, for a forward of n input
// rows that computed the first m output rows.
struct AttentionRecord {
  Tensor x;                  // input of the k/v projections (n rows); the
                             // q projection's is its first m rows
  Tensor q;                  // m rows
  Tensor k, v;               // n rows
  std::vector<Tensor> attn;  // per-head m×n softmax weights
  Tensor concat;             // input of the output projection (m rows)
};

// The scaled-dot-product core that the float and int8 encoders run after
// their own q/k/v projections. q holds m query rows, k and v all n
// positions, and mask[j] == false excludes key j. Per head, over its
// dim/num_heads columns: scores q·kᵀ/√head_dim (−1e30 for masked keys), the
// kernel table's softmax on each score row (masked keys get weight exactly
// 0), then attn·V into that head's columns of the m×dim `concat`. Both
// products run the kernel table's gemm_f32. The m×n scores and a transposed
// copy of k come from `arena`; `attn`, when given, receives each head's
// softmax weights.
void AttentionCore(const Tensor& q, const Tensor& k, const Tensor& v,
                   const std::vector<bool>& mask, size_t num_heads,
                   InferenceArena& arena, Tensor& concat,
                   std::vector<Tensor>* attn = nullptr);

// Multi-head scaled-dot-product self-attention with padding mask.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng& rng);

  // mask[i] == true means position i is a real token; padded positions are
  // excluded as keys (they still produce outputs which downstream ignores).
  // Intermediate activations come from `arena`; the first
  // min(out_rows, x.rows()) output rows land in `out`.
  void ForwardInference(const Tensor& x, const std::vector<bool>& mask,
                        InferenceArena& arena, Tensor& out,
                        AttentionRecord* record = nullptr,
                        size_t out_rows = kAllRows) const;
  // `dy` is the gradient of the m rows the recorded forward computed; the
  // result covers all n input rows, since every key and value feeds them.
  Tensor Backward(const AttentionRecord& record, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  size_t num_heads() const { return num_heads_; }
  const Linear& q_proj() const { return q_proj_; }
  const Linear& k_proj() const { return k_proj_; }
  const Linear& v_proj() const { return v_proj_; }
  const Linear& out_proj() const { return out_proj_; }

 private:
  size_t dim_ = 0;
  size_t num_heads_ = 0;
  size_t head_dim_ = 0;
  Linear q_proj_, k_proj_, v_proj_, out_proj_;
};

// What TransformerLayer::Backward reads. ln1 covers every input row; ln2
// and the FFN inputs only the rows the forward computed.
struct TransformerLayerRecord {
  LayerNormRecord ln1, ln2;
  AttentionRecord attn;
  Tensor ln2_out;   // input of ffn1
  Tensor ffn1_out;  // input of GELU
  Tensor gelu_out;  // input of ffn2
};

// One pre-LayerNorm transformer encoder block:
//   x ← x + Attn(LN1(x));  x ← x + FFN(LN2(x)).
class TransformerLayer {
 public:
  TransformerLayer() = default;
  TransformerLayer(size_t dim, size_t num_heads, size_t ffn_dim, Rng& rng);

  // LN1 and the k/v projections run on every row of `x`; everything else
  // only on the first min(out_rows, x.rows()) rows, which land in `out`.
  void ForwardInference(const Tensor& x, const std::vector<bool>& mask,
                        InferenceArena& arena, Tensor& out,
                        TransformerLayerRecord* record = nullptr,
                        size_t out_rows = kAllRows) const;
  // Like MultiHeadSelfAttention::Backward: `dy` covers the computed rows,
  // the result every input row.
  Tensor Backward(const TransformerLayerRecord& record, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const LayerNorm& ln1() const { return ln1_; }
  const LayerNorm& ln2() const { return ln2_; }
  const MultiHeadSelfAttention& attn() const { return attn_; }
  const Linear& ffn1() const { return ffn1_; }
  const Linear& ffn2() const { return ffn2_; }

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Linear ffn1_, ffn2_;
};

}  // namespace lshap

#endif  // LSHAP_ML_LAYERS_H_
