#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "ml/adam.h"
#include "ml/encoder.h"
#include "ml/layers.h"
#include "ml/quant.h"
#include "ml/simd.h"
#include "ml/tensor.h"
#include "ml/tokenizer.h"

namespace lshap {
namespace {

TEST(TensorTest, MatMulKnownValues) {
  Tensor a(2, 3);
  Tensor b(3, 2);
  float av = 1.0f;
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = av++;
  float bv = 1.0f;
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = bv++;
  Tensor c;
  MatMulInto(a, b, c);
  // a = [[1,2,3],[4,5,6]], b = [[1,2],[3,4],[5,6]]
  EXPECT_FLOAT_EQ(c.at(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 64.0f);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicit) {
  Rng rng(5);
  Tensor a = Tensor::Randn(4, 3, 1.0f, rng);
  Tensor b = Tensor::Randn(4, 5, 1.0f, rng);
  // ATB: (3×5) == transpose(a)·b
  Tensor atb = MatMulATB(a, b);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      float want = 0.0f;
      for (size_t k = 0; k < 4; ++k) want += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(atb.at(i, j), want, 1e-5);
    }
  }
  Tensor c = Tensor::Randn(6, 3, 1.0f, rng);
  Tensor abt = MatMulABT(a, c);  // (4×3)·(6×3)ᵀ = 4×6
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      float want = 0.0f;
      for (size_t k = 0; k < 3; ++k) want += a.at(i, k) * c.at(j, k);
      EXPECT_NEAR(abt.at(i, j), want, 1e-5);
    }
  }
}

// ---- Gradient checking machinery ----

// Loss L(out) = Σ coeff ⊙ out, whose gradient w.r.t. out is `coeff`.
float WeightedSum(const Tensor& out, const Tensor& coeff) {
  float total = 0.0f;
  for (size_t i = 0; i < out.size(); ++i) {
    total += out.data()[i] * coeff.data()[i];
  }
  return total;
}

// Checks analytic parameter gradients of `forward` (re-runnable) against
// central finite differences on a sample of coordinates.
template <typename ForwardFn>
void CheckParamGradients(std::vector<Param*> params, const ForwardFn& forward,
                         const Tensor& coeff, float tol) {
  // Analytic gradients are assumed already accumulated by the caller.
  Rng rng(99);
  const float eps = 1e-3f;
  for (Param* p : params) {
    const size_t checks = std::min<size_t>(6, p->value.size());
    for (size_t c = 0; c < checks; ++c) {
      const size_t i = rng.NextBounded(p->value.size());
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const float up = WeightedSum(forward(), coeff);
      p->value.data()[i] = orig - eps;
      const float down = WeightedSum(forward(), coeff);
      p->value.data()[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = p->grad.data()[i];
      // Mixed absolute/relative tolerance: float32 finite differences lose
      // precision when the loss (and hence gradient) magnitudes are large.
      EXPECT_NEAR(analytic, numeric, tol + 0.005f * std::abs(numeric))
          << "param size " << p->value.size() << " index " << i;
    }
  }
}

// One record-free forward of each layer, as the finite differences need.
Tensor LinearOut(const Linear& lin, const Tensor& x) {
  Tensor y;
  lin.ForwardInference(x, y);
  return y;
}

Tensor LayerNormOut(const LayerNorm& ln, const Tensor& x) {
  Tensor y;
  ln.ForwardInference(x, y);
  return y;
}

Tensor GeluOut(const Tensor& x) {
  Tensor y;
  Gelu::ForwardInference(x, y);
  return y;
}

Tensor AttentionOut(const MultiHeadSelfAttention& attn, const Tensor& x,
                    const std::vector<bool>& mask) {
  InferenceArena arena;
  Tensor y;
  attn.ForwardInference(x, mask, arena, y);
  return y;
}

Tensor EncoderOut(const TransformerEncoder& enc, const std::vector<int>& ids,
                  const std::vector<bool>& mask) {
  InferenceArena arena;
  Tensor y;
  enc.ForwardInference(ids, mask, arena, y);
  return y;
}

TEST(GradientCheck, Linear) {
  Rng rng(1);
  Linear lin(5, 4, rng);
  const Tensor x = Tensor::Randn(3, 5, 1.0f, rng);
  const Tensor coeff = Tensor::Randn(3, 4, 1.0f, rng);
  lin.Backward(x, coeff);
  std::vector<Param*> params;
  lin.CollectParams(params);
  CheckParamGradients(params, [&] { return LinearOut(lin, x); }, coeff,
                      2e-2f);
}

TEST(GradientCheck, LinearInputGradient) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  Tensor x = Tensor::Randn(2, 4, 1.0f, rng);
  const Tensor coeff = Tensor::Randn(2, 3, 1.0f, rng);
  const Tensor dx = lin.Backward(x, coeff);
  const float eps = 1e-3f;
  for (size_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = WeightedSum(LinearOut(lin, x), coeff);
    x.data()[i] = orig - eps;
    const float down = WeightedSum(LinearOut(lin, x), coeff);
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (up - down) / (2 * eps), 2e-2f);
  }
}

TEST(GradientCheck, LayerNorm) {
  Rng rng(3);
  LayerNorm ln(6);
  const Tensor x = Tensor::Randn(4, 6, 1.0f, rng);
  const Tensor coeff = Tensor::Randn(4, 6, 1.0f, rng);
  LayerNormRecord record;
  Tensor y;
  ln.ForwardInference(x, y, &record);
  ln.Backward(record, coeff);
  std::vector<Param*> params;
  ln.CollectParams(params);
  CheckParamGradients(params, [&] { return LayerNormOut(ln, x); }, coeff,
                      2e-2f);
}

TEST(GradientCheck, LayerNormInputGradient) {
  Rng rng(4);
  LayerNorm ln(5);
  Tensor x = Tensor::Randn(2, 5, 1.0f, rng);
  const Tensor coeff = Tensor::Randn(2, 5, 1.0f, rng);
  LayerNormRecord record;
  Tensor y;
  ln.ForwardInference(x, y, &record);
  const Tensor dx = ln.Backward(record, coeff);
  const float eps = 1e-3f;
  for (size_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = WeightedSum(LayerNormOut(ln, x), coeff);
    x.data()[i] = orig - eps;
    const float down = WeightedSum(LayerNormOut(ln, x), coeff);
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (up - down) / (2 * eps), 3e-2f);
  }
}

TEST(GradientCheck, Gelu) {
  Rng rng(5);
  Tensor x = Tensor::Randn(3, 4, 1.0f, rng);
  const Tensor coeff = Tensor::Randn(3, 4, 1.0f, rng);
  const Tensor dx = Gelu::Backward(x, coeff);
  const float eps = 1e-3f;
  for (size_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = WeightedSum(GeluOut(x), coeff);
    x.data()[i] = orig - eps;
    const float down = WeightedSum(GeluOut(x), coeff);
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (up - down) / (2 * eps), 2e-2f);
  }
}

TEST(GradientCheck, MultiHeadAttention) {
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, rng);
  const Tensor x = Tensor::Randn(5, 8, 0.5f, rng);
  const std::vector<bool> mask(5, true);
  const Tensor coeff = Tensor::Randn(5, 8, 1.0f, rng);
  InferenceArena arena;
  AttentionRecord record;
  Tensor y;
  attn.ForwardInference(x, mask, arena, y, &record);
  attn.Backward(record, coeff);
  std::vector<Param*> params;
  attn.CollectParams(params);
  CheckParamGradients(params, [&] { return AttentionOut(attn, x, mask); },
                      coeff, 3e-2f);
}

TEST(GradientCheck, FullEncoder) {
  EncoderConfig cfg;
  cfg.vocab_size = 12;
  cfg.max_len = 6;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 16;
  cfg.seed = 7;
  TransformerEncoder enc(cfg);
  const std::vector<int> ids = {1, 5, 6, 2, 7};
  const std::vector<bool> mask(5, true);
  Rng rng(8);
  const Tensor coeff = Tensor::Randn(5, 8, 1.0f, rng);
  InferenceArena arena;
  EncoderRecord record;
  Tensor y;
  enc.ForwardInference(ids, mask, arena, y, &record);
  enc.Backward(record, coeff);
  CheckParamGradients(enc.Params(), [&] { return EncoderOut(enc, ids, mask); },
                      coeff, 4e-2f);
}

TEST(AttentionTest, PaddingMaskExcludesKeys) {
  Rng rng(9);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::Randn(4, 8, 0.5f, rng);
  std::vector<bool> mask = {true, true, true, false};
  const Tensor out_masked = AttentionOut(attn, x, mask);
  // Changing the masked position's content must not affect other outputs.
  for (size_t c = 0; c < 8; ++c) x.at(3, c) += 10.0f;
  const Tensor out_changed = AttentionOut(attn, x, mask);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(out_masked.at(r, c), out_changed.at(r, c), 1e-5);
    }
  }
}

// ---- SIMD level independence ----

// The [CLS] row of one recorded forward that computes the first
// d_hidden.rows() output rows, then every parameter gradient of Backward of
// `d_hidden`.
std::vector<float> RecordedClsAndGradients(TransformerEncoder& enc,
                                           const std::vector<int>& ids,
                                           const std::vector<bool>& mask,
                                           const Tensor& d_hidden) {
  const std::vector<Param*> params = enc.Params();
  for (Param* p : params) p->ZeroGrad();
  InferenceArena arena;
  EncoderRecord record;
  Tensor y;
  enc.ForwardInference(ids, mask, arena, y, &record, d_hidden.rows());
  enc.Backward(record, d_hidden);
  std::vector<float> out(y.row_data(0), y.row_data(0) + y.cols());
  for (const Param* p : params) {
    out.insert(out.end(), p->grad.data(), p->grad.data() + p->grad.size());
  }
  return out;
}

// Everything the float and int8 encoders compute for one input, flattened:
// the full forward, the one-row forward, the int8 forward, then
// RecordedClsAndGradients of `d_hidden` and of its first row alone.
std::vector<float> EncoderOutputs(TransformerEncoder& enc,
                                  const QuantizedEncoder& qenc,
                                  const std::vector<int>& ids,
                                  const std::vector<bool>& mask,
                                  const Tensor& d_hidden) {
  std::vector<float> out;
  const auto append = [&](const Tensor& t) {
    out.insert(out.end(), t.data(), t.data() + t.size());
  };
  InferenceArena arena;
  Tensor y;
  enc.ForwardInference(ids, mask, arena, y);
  append(y);
  arena.Reset();
  enc.ForwardInference(ids, mask, arena, y, nullptr, 1);
  append(y);
  QuantScratch scratch;
  qenc.Forward(ids, mask, scratch, y);
  append(y);
  Tensor d_cls;
  d_cls.AssignTopRows(d_hidden, 1);
  for (const std::vector<float>& v :
       {RecordedClsAndGradients(enc, ids, mask, d_hidden),
        RecordedClsAndGradients(enc, ids, mask, d_cls)}) {
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

class EncoderSimdLevelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (DetectedSimdLevel() == SimdLevel::kScalar) {
      GTEST_SKIP() << "no SIMD level above scalar on this build/CPU";
    }
  }
  void TearDown() override { SetSimdLevel(DetectedSimdLevel()); }
};

// Every float product runs the kernel table's GEMM, so the scalar table and
// the detected one must give the same bits for every encoder output and
// gradient, at lengths around the 8- and 4-lane column tails and with or
// without a masked trailing key. The upstream gradient has exact zeros,
// whole rows of them too. Its first row alone drives the one-row backward
// that training runs, whose dK and dV products have inner dimension 1.
TEST_F(EncoderSimdLevelTest, ForwardsAndGradientsMatchScalarBitForBit) {
  const size_t vocab = 50;
  for (const EncoderConfig& cfg :
       {EncoderConfig::Base(vocab), EncoderConfig::Large(vocab),
        EncoderConfig::SmallAblation(vocab)}) {
    TransformerEncoder enc(cfg);
    const QuantizedEncoder qenc = QuantizedEncoder::FromEncoder(enc);
    Rng rng(cfg.dim + cfg.num_layers);
    std::vector<size_t> lengths = {31, 32, 33, 63, 64, 65, cfg.max_len};
    for (size_t len = 1; len <= 16; ++len) lengths.push_back(len);
    for (const size_t len : lengths) {
      std::vector<int> ids(len);
      for (int& id : ids) id = static_cast<int>(rng.NextBounded(vocab));
      Tensor d_hidden = Tensor::Randn(len, cfg.dim, 1.0f, rng);
      for (size_t i = 0; i < d_hidden.size(); ++i) {
        if (i / cfg.dim % 3 == 1 || rng.NextBounded(10) == 0) {
          d_hidden.data()[i] = 0.0f;
        }
      }
      for (const bool mask_last : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "dim " << cfg.dim << " len "
                                          << len << " mask_last "
                                          << mask_last);
        std::vector<bool> mask(len, true);
        mask.back() = !mask_last;
        SetSimdLevel(SimdLevel::kScalar);
        const std::vector<float> want =
            EncoderOutputs(enc, qenc, ids, mask, d_hidden);
        SetSimdLevel(DetectedSimdLevel());
        const std::vector<float> got =
            EncoderOutputs(enc, qenc, ids, mask, d_hidden);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) * want.size()),
                  0);
      }
    }
  }
}

// ---- One-row training ----

// Every training loss reads only [CLS], so a training step records and
// back-propagates only that row of the last block. The rows it leaves out
// would add only exact zeros to gradient sums that start from +0. So the
// [CLS] output and every parameter gradient must keep the bits of a full
// recorded forward whose upstream gradient is zero below [CLS]: at every
// length, with or without a masked trailing key, with a d[CLS] that holds an
// exact zero, and at both SIMD levels.
TEST(EncoderRowsTest, ClsRowBackwardMatchesFullBackward) {
  const size_t vocab = 50;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(DetectedSimdLevel());
  }
  for (const EncoderConfig& cfg :
       {EncoderConfig::Base(vocab), EncoderConfig::Large(vocab),
        EncoderConfig::SmallAblation(vocab)}) {
    TransformerEncoder enc(cfg);
    Rng rng(cfg.dim + cfg.num_layers);
    for (size_t len = 1; len <= cfg.max_len; ++len) {
      std::vector<int> ids(len);
      for (int& id : ids) id = static_cast<int>(rng.NextBounded(vocab));
      Tensor d_cls = Tensor::Randn(1, cfg.dim, 1.0f, rng);
      d_cls.data()[rng.NextBounded(cfg.dim)] = 0.0f;
      Tensor d_hidden(len, cfg.dim);
      std::copy(d_cls.data(), d_cls.data() + cfg.dim, d_hidden.row_data(0));
      for (const bool mask_last : {false, true}) {
        std::vector<bool> mask(len, true);
        mask.back() = !mask_last;
        for (const SimdLevel level : levels) {
          SCOPED_TRACE(::testing::Message()
                       << "dim " << cfg.dim << " len " << len << " mask_last "
                       << mask_last << " " << SimdLevelName(level));
          SetSimdLevel(level);
          const std::vector<float> want =
              RecordedClsAndGradients(enc, ids, mask, d_hidden);
          const std::vector<float> got =
              RecordedClsAndGradients(enc, ids, mask, d_cls);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                sizeof(float) * want.size()),
                    0);
        }
      }
    }
  }
  SetSimdLevel(DetectedSimdLevel());
}

// GELU, its derivative and the attention softmax run the kernel table's
// shared exp approximation in every encoder. At both SIMD levels they stay
// within 1e-6 of the std::tanh and std::exp formulas, computed in double,
// over [-12, 12] and on rows of every length up to 80 with masked keys
// (the largest errors seen are 4.3e-7, 1.4e-7 and 9.4e-8).
TEST(KernelToleranceTest, GeluAndSoftmaxTrackLibmFormulas) {
  constexpr double kTolerance = 1e-6;
  constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)
  for (const SimdLevel level : {SimdLevel::kScalar, DetectedSimdLevel()}) {
    SetSimdLevel(level);
    SCOPED_TRACE(SimdLevelName(level));
    Tensor x(1, 2401);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = -12.0f + 0.01f * static_cast<float>(i);
    }
    Tensor ones(1, x.size());
    ones.Fill(1.0f);
    const Tensor y = GeluOut(x);
    const Tensor grad = Gelu::Backward(x, ones);
    for (size_t i = 0; i < x.size(); ++i) {
      const double v = x.data()[i];
      const double t = std::tanh(kGeluC * (v + 0.044715 * v * v * v));
      const double want_y = 0.5 * v * (1.0 + t);
      const double want_grad =
          0.5 * (1.0 + t) +
          0.5 * v * (1.0 - t * t) * kGeluC * (1.0 + 3.0 * 0.044715 * v * v);
      EXPECT_NEAR(y.data()[i], want_y, kTolerance) << "x=" << v;
      EXPECT_NEAR(grad.data()[i], want_grad, kTolerance) << "x=" << v;
    }

    Rng rng(32);
    for (size_t n = 1; n <= 80; ++n) {
      std::vector<float> row(n);
      for (size_t j = 0; j < n; ++j) {
        const float r = static_cast<float>(rng.NextDouble());
        row[j] = j % 5 == 3 ? -1e30f : 8.0f * (2.0f * r - 1.0f);
      }
      std::vector<float> got = row;
      SimdKernels().softmax(got.data(), n);
      double max_v = -1e30;
      for (float v : row) max_v = std::max(max_v, static_cast<double>(v));
      double sum = 0.0;
      for (float v : row) sum += std::exp(v - max_v);
      for (size_t j = 0; j < n; ++j) {
        const double want = std::exp(row[j] - max_v) / sum;
        EXPECT_NEAR(got[j], want, kTolerance) << "n=" << n << " j=" << j;
      }
    }
  }
  SetSimdLevel(DetectedSimdLevel());
}

TEST(AdamTest, LearnsLinearRegression) {
  // y = x·W* with a learned Linear; Adam should drive the loss near zero.
  Rng rng(10);
  Linear model(3, 1, rng);
  Tensor w_star(3, 1);
  w_star.at(0, 0) = 0.5f;
  w_star.at(1, 0) = -1.0f;
  w_star.at(2, 0) = 2.0f;
  std::vector<Param*> params;
  model.CollectParams(params);
  AdamConfig cfg;
  cfg.lr = 5e-2f;
  Adam opt(params, cfg);
  float last_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    const Tensor x = Tensor::Randn(8, 3, 1.0f, rng);
    Tensor target;
    MatMulInto(x, w_star, target);
    const Tensor pred = LinearOut(model, x);
    Tensor d(8, 1);
    last_loss = 0.0f;
    for (size_t i = 0; i < 8; ++i) {
      const float err = pred.at(i, 0) - target.at(i, 0);
      d.at(i, 0) = 2.0f * err / 8.0f;
      last_loss += err * err / 8.0f;
    }
    model.Backward(x, d);
    opt.Step();
  }
  EXPECT_LT(last_loss, 1e-3f);
}

TEST(TokenizerTest, SplitsSqlIntoWordsAndPunctuation) {
  const auto tokens =
      TokenizeText("SELECT DISTINCT actors.name FROM movies WHERE year = 2007");
  const std::vector<std::string> want = {
      "select", "distinct", "actors", ".", "name", "from",
      "movies", "where",    "year",   "=", "2007"};
  EXPECT_EQ(tokens, want);
}

TEST(TokenizerTest, HandlesQuotesAndLike) {
  const auto tokens = TokenizeText("name LIKE 'B%'");
  const std::vector<std::string> want = {"name", "like", "'", "b", "%", "'"};
  EXPECT_EQ(tokens, want);
}

TEST(VocabTest, SpecialsAndGrowth) {
  Vocab v;
  EXPECT_EQ(v.size(), static_cast<size_t>(Vocab::kNumSpecial));
  v.AddTokens({"select", "from", "select"});
  EXPECT_EQ(v.size(), static_cast<size_t>(Vocab::kNumSpecial) + 2);
  EXPECT_EQ(v.Encode("select"), Vocab::kNumSpecial);
  EXPECT_EQ(v.Encode("never-seen"), Vocab::kUnk);
  EXPECT_EQ(v.token(Vocab::kCls), "[CLS]");
}

TEST(EncodeSegmentsTest, LayoutAndTruncation) {
  Vocab v;
  v.AddTokens({"a", "b", "c", "d"});
  const EncodedPair p =
      EncodeSegments(v, {{"a", "b"}, {"c", "d"}}, /*max_len=*/16);
  // [CLS] a b [SEP] c d
  ASSERT_EQ(p.ids.size(), 6u);
  EXPECT_EQ(p.ids[0], Vocab::kCls);
  EXPECT_EQ(p.ids[3], Vocab::kSep);
  EXPECT_EQ(p.mask, std::vector<bool>(6, true));

  // Truncation keeps proportions and never exceeds max_len.
  std::vector<std::string> longseg(30, "a");
  const EncodedPair q = EncodeSegments(v, {longseg, {"c"}}, 10);
  EXPECT_LE(q.ids.size(), 10u);
  EXPECT_EQ(q.ids[0], Vocab::kCls);
}

TEST(EncodeSegmentsTest, TinyBudgetsKeepShortSegmentsFirst) {
  // Regression: with a content budget below the segment count, the
  // equal-share split rounded to zero and the whole budget fell through to
  // the *longest* segment — starving the short, discriminative segments
  // (the output tuple, the fact) in favor of SQL text.
  Vocab v;
  v.AddTokens({"q", "t", "f"});
  const std::vector<std::string> query(6, "q");            // longest
  const std::vector<std::string> tuple = {"t"};            // shortest
  const std::vector<std::string> fact = {"f", "f", "f"};   // middle
  const size_t specials = 3;  // [CLS] + 2 [SEP]
  auto count = [&](const EncodedPair& p, const char* tok) {
    return std::count(p.ids.begin(), p.ids.end(), v.Encode(tok));
  };

  // Budget 0: specials only, no crash, no content tokens.
  const EncodedPair p0 = EncodeSegments(v, {query, tuple, fact}, specials);
  EXPECT_EQ(p0.ids,
            (std::vector<int>{Vocab::kCls, Vocab::kSep, Vocab::kSep}));

  // Budget 1: the single content token goes to the shortest segment, not
  // to the SQL text.
  const EncodedPair p1 = EncodeSegments(v, {query, tuple, fact}, specials + 1);
  EXPECT_EQ(p1.ids.size(), specials + 1);
  EXPECT_EQ(count(p1, "t"), 1);
  EXPECT_EQ(count(p1, "q"), 0);

  // Budget = #segments - 1: the two shortest segments keep one token each.
  const EncodedPair p2 = EncodeSegments(v, {query, tuple, fact}, specials + 2);
  EXPECT_EQ(p2.ids.size(), specials + 2);
  EXPECT_EQ(count(p2, "t"), 1);
  EXPECT_EQ(count(p2, "f"), 1);
  EXPECT_EQ(count(p2, "q"), 0);
}

TEST(EncodeSegmentsTest, AssembleMatchesEncodeSegments) {
  // The batched scoring path (EncodeTokens + AssembleEncodedSegments) must
  // produce byte-identical framing to the one-shot EncodeSegments.
  Vocab v;
  v.AddTokens({"a", "b", "c", "d", "e"});
  const std::vector<std::string> s0 = {"a", "b", "c", "a", "b", "c"};
  const std::vector<std::string> s1 = {"d"};
  const std::vector<std::string> s2 = {"e", "e", "a"};
  for (size_t max_len : {3u, 4u, 5u, 8u, 16u}) {
    const EncodedPair want = EncodeSegments(v, {s0, s1, s2}, max_len);
    const std::vector<int> e0 = EncodeTokens(v, s0);
    const std::vector<int> e1 = EncodeTokens(v, s1);
    const std::vector<int> e2 = EncodeTokens(v, s2);
    const EncodedPair got = AssembleEncodedSegments({&e0, &e1, &e2}, max_len);
    EXPECT_EQ(got.ids, want.ids) << "max_len=" << max_len;
    EXPECT_EQ(got.mask, want.mask) << "max_len=" << max_len;
  }
}

}  // namespace
}  // namespace lshap
