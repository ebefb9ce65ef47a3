// Differential tests for the quantized SIMD inference path (DESIGN.md §12):
//
//  - KernelBitEquality: the AVX2 and scalar kernels are bit-equal on random
//    shapes, the float GEMM equals the naive ascending-sum loop and the int8
//    GEMM the naive int32 loop (this is what lets the AVX2-disabled CI leg
//    certify the scalar fallback as the same function).
//  - Float forward: the one const ForwardInference gives the same bits
//    whether or not a training step passes an activation record.
//  - One-row forward: asking the float or int8 encoder for the [CLS] row
//    alone gives exactly the bits of row 0 of the full forward.
//  - QuantizedLinear: codes reconstruct the float weights within half a
//    quantization step, and the int8 forward stays inside the analytic
//    error bound of the scheme.
//  - Golden pin: a hash of seeded int8 predictions keeps its recorded
//    value at both SIMD levels.
//  - End-to-end: quantized top-k rankings agree with the float oracle on
//    the held-out eval split within a small NDCG tolerance, batched lineage
//    scoring equals per-fact scoring, and one shared const ranker scored
//    from many threads is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "corpus/corpus.h"
#include "datasets/imdb.h"
#include "learnshapley/model.h"
#include "learnshapley/ranker.h"
#include "learnshapley/trainer.h"
#include "metrics/ranking_metrics.h"
#include "ml/encoder.h"
#include "ml/layers.h"
#include "ml/quant.h"
#include "ml/simd.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

// Grabs both kernel tables through the dispatch point. The tables are
// statics, so the references stay valid after the level is restored.
struct BothTables {
  const SimdKernelTable* scalar;
  const SimdKernelTable* simd;
};

BothTables GetTables() {
  const SimdLevel detected = DetectedSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  const SimdKernelTable* scalar = &SimdKernels();
  SetSimdLevel(detected);
  return {scalar, &SimdKernels()};
}

class KernelBitEquality : public ::testing::Test {
 protected:
  void SetUp() override {
    if (DetectedSimdLevel() == SimdLevel::kScalar) {
      GTEST_SKIP() << "no SIMD level above scalar on this build/CPU";
    }
  }
  void TearDown() override { SetSimdLevel(DetectedSimdLevel()); }
};

// The int8 GEMM: both entries must give the naive int32 triple loop's sums
// on random shapes — one row and 4i + 1 rows, odd and even k, channel
// counts on both sides of the 8- and 16-wide tiles — with codes at ±127,
// including runs of them, and C a slice of wider rows whose other columns
// stay untouched.
TEST_F(KernelBitEquality, Int8Gemm) {
  auto [scalar, simd] = GetTables();
  Rng rng(101);
  const int32_t kUntouched = 0x5eed;
  static constexpr size_t kWidths[] = {1, 7, 8, 9, 15, 16, 17, 48, 96, 144};
  const auto random_code = [&rng] {
    return static_cast<int8_t>(static_cast<int>(rng.NextBounded(255)) - 127);
  };
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = trial % 6 == 0   ? 1
                     : trial % 6 == 1 ? 4 * (1 + rng.NextBounded(20)) + 1
                                      : 1 + rng.NextBounded(80);
    // Around 128, then two k that the kernels stage in chunks of 512 codes,
    // whose sums add up in C.
    static constexpr size_t kFixedK[] = {127, 128, 129, 130, 600, 1025};
    const size_t k = trial < 6 ? kFixedK[trial] : 1 + rng.NextBounded(130);
    const size_t m = kWidths[trial % std::size(kWidths)];
    const size_t lda = k + (trial % 2 == 0 ? 0 : 1 + rng.NextBounded(9));
    const size_t ldc = m + 1 + rng.NextBounded(12);
    std::vector<int8_t> a(n * lda);
    for (int8_t& code : a) code = random_code();
    std::vector<int8_t> w(k * m);
    for (int8_t& code : w) code = random_code();
    // Runs of ±127, the int32 worst case.
    if (trial % 3 == 0) {
      for (size_t p = 0; p < k; ++p) {
        a[p] = 127;
        w[p * m] = trial % 2 == 0 ? 127 : -127;
      }
    }
    std::vector<int16_t> packed(GemmI8PackedSize(k, m), 0);
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < m; ++j) {
        packed[GemmI8PackedIndex(p, j, k)] = w[p * m + j];
      }
    }

    std::vector<int32_t> want(n * ldc, kUntouched);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        int32_t acc = 0;
        for (size_t p = 0; p < k; ++p) {
          acc += static_cast<int32_t>(a[i * lda + p]) * w[p * m + j];
        }
        want[i * ldc + j] = acc;
      }
    }
    std::vector<int32_t> got_scalar(n * ldc, kUntouched);
    std::vector<int32_t> got_simd(n * ldc, kUntouched);
    scalar->gemm_i8(a.data(), lda, packed.data(), got_scalar.data(), ldc, n,
                    k, m);
    simd->gemm_i8(a.data(), lda, packed.data(), got_simd.data(), ldc, n, k,
                  m);
    SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k << " m=" << m
                                      << " lda=" << lda << " ldc=" << ldc);
    EXPECT_EQ(got_scalar, want);
    EXPECT_EQ(got_simd, want);
  }
}

std::vector<float> RandomRow(Rng& rng, size_t n, float scale) {
  std::vector<float> x(n);
  for (float& v : x) {
    v = scale * (2.0f * static_cast<float>(rng.NextDouble()) - 1.0f);
  }
  return x;
}

TEST_F(KernelBitEquality, Gelu) {
  auto [scalar, simd] = GetTables();
  Rng rng(102);
  for (size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 100u}) {
    const std::vector<float> x = RandomRow(rng, n, 6.0f);
    std::vector<float> a = x, b = x;
    scalar->gelu(a.data(), n);
    simd->gelu(b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i << " x=" << x[i];
    }
  }
}

// GELU's derivative over [-12, 12], where exp(2u) reaches its clamp, with
// exact and signed zeros and ±1e-30 mixed in, at every tail length.
TEST_F(KernelBitEquality, GeluBackward) {
  auto [scalar, simd] = GetTables();
  Rng rng(106);
  std::vector<size_t> lengths = {64, 65, 100};
  for (size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (const size_t n : lengths) {
    std::vector<float> x = RandomRow(rng, n, 12.0f);
    static constexpr float kSpecial[] = {0.0f, -0.0f, 1e-30f, -1e-30f,
                                         12.0f, -12.0f};
    for (size_t i = 0; i < n; i += 3) x[i] = kSpecial[(i / 3) % 6];
    const std::vector<float> dy = RandomRow(rng, n, 2.0f);
    std::vector<float> a(n, 7.5f), b(n, 7.5f);
    scalar->gelu_backward(x.data(), dy.data(), a.data(), n);
    simd->gelu_backward(x.data(), dy.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i << " x=" << x[i];
      EXPECT_TRUE(std::isfinite(a[i])) << "n=" << n << " x=" << x[i];
    }
  }
}

TEST_F(KernelBitEquality, SoftmaxIncludingMaskedEntries) {
  auto [scalar, simd] = GetTables();
  Rng rng(103);
  std::vector<size_t> lengths = {31, 64, 65, 100};
  for (size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (const size_t n : lengths) {
    std::vector<float> x = RandomRow(rng, n, 8.0f);
    // Mask a third of the entries the way attention does; the kernels must
    // drive those to exactly zero in both variants.
    for (size_t i = 0; i < n; ++i) {
      if (i % 3 == 1 && n > 1) x[i] = -1e30f;
    }
    std::vector<float> a = x, b = x;
    scalar->softmax(a.data(), n);
    simd->softmax(b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
      if (i % 3 == 1 && n > 1) {
        EXPECT_EQ(a[i], 0.0f);
      }
    }
  }
  // A fully masked row (a [CLS]-only input with its key masked) spreads its
  // weight evenly: the max is the mask value itself, so every entry's exp
  // is exp(0) = 1, and the sum of ones is exact.
  for (const size_t n : {1u, 7u, 9u, 65u}) {
    std::vector<float> a(n, -1e30f), b(n, -1e30f);
    scalar->softmax(a.data(), n);
    simd->softmax(b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(a[i], 1.0f / static_cast<float>(n)) << "n=" << n;
    }
  }
}

TEST_F(KernelBitEquality, QuantizeRow) {
  auto [scalar, simd] = GetTables();
  Rng rng(104);
  for (size_t n : {1u, 5u, 8u, 13u, 16u, 24u, 48u, 100u}) {
    const std::vector<float> x = RandomRow(rng, n, 3.0f);
    std::vector<int8_t> qa(n, 42), qb(n, 42);
    float sa = -1.0f, sb = -1.0f;
    scalar->quantize_row(x.data(), n, qa.data(), &sa);
    simd->quantize_row(x.data(), n, qb.data(), &sb);
    EXPECT_EQ(sa, sb) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(qa[i], qb[i]) << "n=" << n << " i=" << i;
    }
  }
  // Zero rows get scale 0 and all-zero codes in both variants.
  std::vector<float> zeros(40, 0.0f);
  std::vector<int8_t> qa(40, 42), qb(40, 42);
  float sa = -1.0f, sb = -1.0f;
  scalar->quantize_row(zeros.data(), zeros.size(), qa.data(), &sa);
  simd->quantize_row(zeros.data(), zeros.size(), qb.data(), &sb);
  EXPECT_EQ(sa, 0.0f);
  EXPECT_EQ(sb, 0.0f);
  for (size_t i = 0; i < zeros.size(); ++i) {
    EXPECT_EQ(qa[i], 0);
    EXPECT_EQ(qb[i], 0);
  }
}

// The float GEMM: both entries must give the bits of the naive loop that
// sums each output from +0 in ascending p, on every shape the encoder uses —
// A read transposed through strides, B and C as column slices of wider
// rows, and exact zeros (of both signs) in A, which the old per-loop zero
// skips left out of the sum.
TEST_F(KernelBitEquality, FloatGemm) {
  auto [scalar, simd] = GetTables();
  Rng rng(105);
  const float kUntouched = 7.5f;
  for (int trial = 0; trial < 48; ++trial) {
    const size_t n = 1 + rng.NextBounded(100);
    const size_t k = 1 + rng.NextBounded(100);
    static constexpr size_t kWidths[] = {1, 12, 48, 96};
    const size_t m = trial < 8 ? kWidths[trial % 4] : 1 + rng.NextBounded(100);
    const bool transposed = trial % 2 == 1;
    const size_t ldb = m + (trial % 3 == 0 ? 0 : 1 + rng.NextBounded(40));
    const size_t ldc = m + (trial % 3 == 1 ? 0 : 1 + rng.NextBounded(40));
    // A is n×k, stored row-major or transposed (k×n) with a wider stride.
    const size_t lda = transposed ? n + rng.NextBounded(5) : k;
    const size_t a_row = transposed ? 1 : lda;
    const size_t a_col = transposed ? lda : 1;
    std::vector<float> a = RandomRow(rng, transposed ? k * lda : n * lda, 2.0f);
    for (float& v : a) {
      if (rng.NextBounded(10) == 0) v = rng.NextBounded(2) ? 0.0f : -0.0f;
    }
    const std::vector<float> b = RandomRow(rng, k * ldb, 2.0f);

    std::vector<float> want(n * ldc, kUntouched);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (size_t p = 0; p < k; ++p) {
          acc += a[i * a_row + p * a_col] * b[p * ldb + j];
        }
        want[i * ldc + j] = acc;
      }
    }
    std::vector<float> got_scalar(n * ldc, kUntouched);
    std::vector<float> got_simd(n * ldc, kUntouched);
    scalar->gemm_f32(a.data(), a_row, a_col, b.data(), ldb, got_scalar.data(),
                     ldc, n, k, m);
    simd->gemm_f32(a.data(), a_row, a_col, b.data(), ldb, got_simd.data(), ldc,
                   n, k, m);
    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " k=" << k << " m=" << m << " ldb=" << ldb
                 << " ldc=" << ldc << " transposed=" << transposed);
    EXPECT_EQ(std::memcmp(got_scalar.data(), want.data(),
                          sizeof(float) * want.size()),
              0);
    EXPECT_EQ(std::memcmp(got_simd.data(), want.data(),
                          sizeof(float) * want.size()),
              0);
  }
}

TEST(SimdExpApproxTest, TracksStdExpAndMasksToZero) {
  for (float x = -20.0f; x <= 20.0f; x += 0.37f) {
    const float want = std::exp(x);
    EXPECT_NEAR(SimdExpApprox(x), want, 2e-5f * (1.0f + want)) << "x=" << x;
  }
  EXPECT_EQ(SimdExpApprox(-1e30f), 0.0f);  // masked attention scores
  EXPECT_EQ(SimdExpApprox(-100.0f), 0.0f);
  EXPECT_GT(SimdExpApprox(-80.0f), 0.0f);
}

// ---- Float forward with and without an activation record ----

TEST(FloatInferenceTest, ForwardIsBitIdenticalWithAndWithoutRecord) {
  EncoderConfig cfg;
  cfg.vocab_size = 40;
  cfg.max_len = 12;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ffn_dim = 32;
  cfg.seed = 21;
  LearnShapleyModel model(cfg, 21);
  const TransformerEncoder& enc = model.encoder();
  Rng rng(22);
  InferenceArena arena;
  for (int trial = 0; trial < 5; ++trial) {
    const size_t len = 3 + rng.NextBounded(9);
    EncodedPair input;
    input.ids.push_back(Vocab::kCls);
    for (size_t i = 1; i < len; ++i) {
      input.ids.push_back(static_cast<int>(
          Vocab::kNumSpecial +
          rng.NextBounded(cfg.vocab_size - Vocab::kNumSpecial)));
    }
    // Trial 0 masks its last key, so the masked-softmax branch is covered.
    input.mask.assign(len, true);
    if (trial == 0) input.mask.back() = false;

    // Encoder: the recorded forward is the serving forward, bit for bit.
    arena.Reset();
    Tensor plain;
    enc.ForwardInference(input.ids, input.mask, arena, plain);
    InferenceArena record_arena;
    EncoderRecord record;
    Tensor recorded;
    enc.ForwardInference(input.ids, input.mask, record_arena, recorded,
                         &record);
    ASSERT_EQ(recorded.rows(), plain.rows());
    ASSERT_EQ(recorded.cols(), plain.cols());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(recorded.data()[i], plain.data()[i]) << "trial " << trial;
    }

    // Model: a training step's loss is built from exactly the prediction
    // serving returns. Steps only accumulate gradients, so the weights stay
    // put across the calls below.
    const float pred = model.PredictShapley(input, arena);
    EXPECT_EQ(model.PredictShapley(input), pred);
    const float target = 0.25f;
    const float err = pred - target;
    EXPECT_EQ(model.FinetuneStep(input, target), err * err);

    const LearnShapleyModel::Similarities sims =
        model.PredictSimilarities(input);
    const float er = sims.rank - 0.5f;
    const float ew = sims.witness - 0.25f;
    const float es = sims.syntax - 0.75f;
    float want = 0.0f;
    want += er * er;
    want += ew * ew;
    want += es * es;
    EXPECT_EQ(model.PretrainStep(input, 0.5, 0.25, 0.75, PretrainObjectives{}),
              want);
  }
}

// ---- One-row forward ----

// Scoring reads only [CLS], so its last block computes row 0 alone. That
// row must carry the full forward's bits in both encoders, at every length
// and with or without a masked trailing key.
TEST(EncoderRowsTest, ClsRowForwardMatchesFullForward) {
  const size_t vocab = 50;
  for (const EncoderConfig& cfg :
       {EncoderConfig::Base(vocab), EncoderConfig::Large(vocab)}) {
    const TransformerEncoder enc(cfg);
    const QuantizedEncoder qenc = QuantizedEncoder::FromEncoder(enc);
    Rng rng(cfg.dim);
    InferenceArena arena;
    QuantScratch scratch;
    for (size_t len = 1; len <= cfg.max_len; ++len) {
      std::vector<int> ids(len);
      for (int& id : ids) id = static_cast<int>(rng.NextBounded(vocab));
      for (const bool mask_last : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "dim " << cfg.dim << " len "
                                          << len << " mask_last "
                                          << mask_last);
        std::vector<bool> mask(len, true);
        mask.back() = !mask_last;
        const auto expect_row0 = [&](const Tensor& full, const Tensor& row) {
          ASSERT_EQ(full.rows(), len);
          ASSERT_EQ(row.rows(), 1u);
          ASSERT_EQ(row.cols(), cfg.dim);
          EXPECT_EQ(std::memcmp(row.data(), full.row_data(0),
                                sizeof(float) * cfg.dim),
                    0);
        };
        Tensor full, row;
        arena.Reset();
        enc.ForwardInference(ids, mask, arena, full);
        arena.Reset();
        enc.ForwardInference(ids, mask, arena, row, nullptr, 1);
        expect_row0(full, row);
        scratch.Reset();
        qenc.Forward(ids, mask, scratch, full);
        scratch.Reset();
        qenc.Forward(ids, mask, scratch, row, 1);
        expect_row0(full, row);
      }
    }
  }
}

// ---- QuantizedLinear ----

TEST(QuantizedLinearTest, CodesReconstructWeightsWithinHalfStep) {
  Rng rng(41);
  const size_t in = 23, out = 12;
  const Tensor w = Tensor::Randn(in, out, 1.0f, rng);
  const Tensor b = Tensor::Randn(1, out, 1.0f, rng);
  const QuantizedLinear q = QuantizedLinear::FromFloat(w, b);
  ASSERT_EQ(q.in(), in);
  ASSERT_EQ(q.out(), out);
  for (size_t j = 0; j < out; ++j) {
    float amax = 0.0f;
    for (size_t i = 0; i < in; ++i) amax = std::max(amax, std::abs(w.at(i, j)));
    EXPECT_FLOAT_EQ(q.scales()[j], amax / 127.0f);
    for (size_t i = 0; i < in; ++i) {
      const float code = static_cast<float>(q.code(i, j));
      EXPECT_NEAR(code * q.scales()[j], w.at(i, j),
                  0.5f * q.scales()[j] + 1e-6f);
    }
  }
  // The packed layout's padding — the odd input's pair partner and the
  // channels past `out` in the last 8-channel block — holds zero codes, so
  // it adds nothing to any sum.
  for (size_t j = 0; j < GemmI8PadM(out); ++j) {
    for (size_t i = 0; i < GemmI8PadK(in); ++i) {
      if (i < in && j < out) continue;
      EXPECT_EQ(q.code(i, j), 0) << "i=" << i << " j=" << j;
    }
  }
}

TEST(QuantizedLinearTest, ForwardStaysInsideAnalyticErrorBound) {
  Rng rng(42);
  const size_t rows = 4, in = 40, out = 20;
  const Tensor w = Tensor::Randn(in, out, 0.7f, rng);
  const Tensor b = Tensor::Randn(1, out, 0.5f, rng);
  const Tensor x = Tensor::Randn(rows, in, 1.2f, rng);
  const QuantizedLinear q = QuantizedLinear::FromFloat(w, b);

  QuantScratch scratch;
  Tensor got;
  QuantizedLinearForward(q, x, scratch, got);
  ASSERT_EQ(got.rows(), rows);
  ASSERT_EQ(got.cols(), out);

  for (size_t r = 0; r < rows; ++r) {
    float amax = 0.0f;
    for (size_t i = 0; i < in; ++i) amax = std::max(amax, std::abs(x.at(r, i)));
    const float act_scale = amax / 127.0f;
    for (size_t j = 0; j < out; ++j) {
      float want = b.at(0, j);
      float bound = 1e-4f;
      for (size_t i = 0; i < in; ++i) {
        want += x.at(r, i) * w.at(i, j);
        // Worst case per term: half a step on each operand plus the cross
        // term (both operands rounded at once).
        bound += 0.5f * act_scale * std::abs(w.at(i, j)) +
                 0.5f * q.scales()[j] * std::abs(x.at(r, i)) +
                 0.25f * act_scale * q.scales()[j];
      }
      EXPECT_NEAR(got.at(r, j), want, bound) << "r=" << r << " j=" << j;
    }
  }
}

// ---- Golden pin: int8 predictions keep their bits ----

// FNV-1a over the bits of every int8 PredictShapley output of seeded,
// untrained Base, Large and SmallAblation models at every length 1-80,
// every third input with one masked key.
uint64_t QuantizedPredictionHash() {
  const size_t vocab = 60;
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const EncoderConfig& cfg :
       {EncoderConfig::Base(vocab), EncoderConfig::Large(vocab),
        EncoderConfig::SmallAblation(vocab)}) {
    const LearnShapleyModel model(cfg, 77);
    const QuantizedShapleyModel qmodel =
        QuantizedShapleyModel::FromModel(model);
    Rng rng(cfg.dim + cfg.num_layers);
    QuantScratch scratch;
    for (size_t len = 1; len <= cfg.max_len; ++len) {
      EncodedPair input;
      input.ids.push_back(Vocab::kCls);
      for (size_t i = 1; i < len; ++i) {
        input.ids.push_back(static_cast<int>(
            Vocab::kNumSpecial + rng.NextBounded(vocab - Vocab::kNumSpecial)));
      }
      input.mask.assign(len, true);
      if (len % 3 == 0) input.mask[rng.NextBounded(len)] = false;
      const float pred = qmodel.PredictShapley(input, scratch);
      uint32_t bits;
      std::memcpy(&bits, &pred, sizeof(bits));
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
  }
  return hash;
}

// The value was recorded with the per-channel dot-product kernel the int8
// GEMM replaced. Integer sums are exact in any order, so no kernel, tiling
// or weight layout may move it, at either SIMD level.
TEST(QuantizedGoldenTest, QuantizedPredictionsKeepTheirBits) {
  constexpr uint64_t kWant = 0xb3be2c19165c3688ull;
  const SimdLevel detected = DetectedSimdLevel();
  for (const SimdLevel level : {SimdLevel::kScalar, detected}) {
    SetSimdLevel(level);
    EXPECT_EQ(QuantizedPredictionHash(), kWant) << SimdLevelName(level);
  }
  SetSimdLevel(detected);
}

// ---- End-to-end: quantized vs float oracle on the eval split ----

struct TrainedFixture {
  GeneratedDb data;
  ThreadPool pool;
  Corpus corpus;
  TrainResult trained;

  TrainedFixture() : data(MakeImdbDatabase({})), pool(2) {
    CorpusConfig cfg;
    cfg.seed = 12;
    cfg.num_base_queries = 8;
    cfg.max_outputs_per_query = 6;
    cfg.query_gen.max_tables = 3;
    corpus = BuildCorpus(*data.db, data.graph, cfg, pool);
    SimilarityMatrices sims = ComputeSimilarityMatrices(corpus, 6, pool);
    TrainConfig tc;
    tc.do_pretrain = false;
    tc.finetune_epochs = 1;
    tc.finetune_samples_per_epoch = 64;
    tc.batch_size = 32;
    tc.seed = 13;
    trained = TrainLearnShapley(corpus, sims, tc, pool);
  }
};

// One trained model shared by every end-to-end test below (training once
// keeps this test binary fast).
TrainedFixture& Fixture() {
  static TrainedFixture* fixture = new TrainedFixture();
  return *fixture;
}

struct EvalPair {
  const CorpusEntry* entry;
  const TupleContribution* contrib;
  std::vector<FactId> lineage;
};

std::vector<EvalPair> EvalPairs(const Corpus& corpus) {
  std::vector<EvalPair> pairs;
  for (size_t e : corpus.test_idx) {
    const CorpusEntry& entry = corpus.entries[e];
    for (const TupleContribution& c : entry.contributions) {
      EvalPair p{&entry, &c, {}};
      for (const auto& [f, v] : c.shapley) p.lineage.push_back(f);
      if (!p.lineage.empty()) pairs.push_back(std::move(p));
    }
  }
  return pairs;
}

TEST(QuantizedEndToEndTest, TopKAgreesWithFloatOracleWithinNdcgTolerance) {
  TrainedFixture& fx = Fixture();
  LearnShapleyRanker& ranker = *fx.trained.ranker;
  const std::vector<EvalPair> pairs = EvalPairs(fx.corpus);
  ASSERT_FALSE(pairs.empty());

  std::vector<ShapleyValues> float_scores;
  ranker.Configure(RankerConfig{}.WithMode(InferenceMode::kFloat));
  for (const EvalPair& p : pairs) {
    float_scores.push_back(ranker.ScoreLineage(
        *fx.corpus.db, p.entry->query, p.contrib->tuple, p.lineage));
  }

  ranker.Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_NE(ranker.quantized_model(), nullptr);

  std::vector<double> agreement, gold_delta;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const EvalPair& p = pairs[i];
    const ShapleyValues quant_scores = ranker.ScoreLineage(
        *fx.corpus.db, p.entry->query, p.contrib->tuple, p.lineage);
    const std::vector<FactId> rank_f = RankByScore(float_scores[i]);
    const std::vector<FactId> rank_q = RankByScore(quant_scores);

    // NDCG of the quantized ranking with the float ranking as gold: graded
    // relevance by float rank position, so low-rank swaps between near-ties
    // cost little and top-k swaps cost a lot.
    ShapleyValues float_rank_rel;
    for (size_t r = 0; r < rank_f.size(); ++r) {
      float_rank_rel[rank_f[r]] =
          static_cast<double>(rank_f.size() - r);
    }
    agreement.push_back(NdcgAtK(rank_q, float_rank_rel, 10));

    // Against the true Shapley gold, quantization must not change ranking
    // quality by more than a hair.
    gold_delta.push_back(std::abs(NdcgAtK(rank_f, p.contrib->shapley, 10) -
                                  NdcgAtK(rank_q, p.contrib->shapley, 10)));
  }
  EXPECT_GE(Mean(agreement), 0.97) << "quantized ranking diverged from the "
                                      "float oracle on the eval split";
  EXPECT_LE(Mean(gold_delta), 0.02);
  ranker.Configure(RankerConfig{}.WithMode(InferenceMode::kFloat));
}

TEST(QuantizedEndToEndTest, BatchedLineageEqualsPerFactScoring) {
  TrainedFixture& fx = Fixture();
  LearnShapleyRanker& ranker = *fx.trained.ranker;
  const std::vector<EvalPair> pairs = EvalPairs(fx.corpus);
  ASSERT_FALSE(pairs.empty());

  for (InferenceMode mode :
       {InferenceMode::kFloat, InferenceMode::kQuantized}) {
    ranker.Configure(RankerConfig{}.WithMode(mode));
    const EvalPair& p = pairs.front();
    const ShapleyValues batched = ranker.ScoreLineage(
        *fx.corpus.db, p.entry->query, p.contrib->tuple, p.lineage);
    for (FactId f : p.lineage) {
      const ShapleyValues single = ranker.ScoreLineage(
          *fx.corpus.db, p.entry->query, p.contrib->tuple, {f});
      ASSERT_EQ(single.size(), 1u);
      EXPECT_EQ(batched.at(f), single.at(f))
          << "mode " << InferenceModeName(mode) << " fact " << f;
    }
  }
  ranker.Configure(RankerConfig{}.WithMode(InferenceMode::kFloat));
}

TEST(QuantizedEndToEndTest, SharedConstRankerIsDeterministicAcrossThreads) {
  TrainedFixture& fx = Fixture();
  const std::vector<EvalPair> pairs = EvalPairs(fx.corpus);
  ASSERT_FALSE(pairs.empty());

  for (InferenceMode mode :
       {InferenceMode::kFloat, InferenceMode::kQuantized}) {
    fx.trained.ranker->Configure(RankerConfig{}.WithMode(mode));
    const LearnShapleyRanker& shared = *fx.trained.ranker;

    std::vector<ShapleyValues> serial;
    for (const EvalPair& p : pairs) {
      serial.push_back(shared.ScoreLineage(*fx.corpus.db, p.entry->query,
                                           p.contrib->tuple, p.lineage));
    }

    constexpr size_t kThreads = 4;
    std::vector<std::vector<ShapleyValues>> per_thread(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const EvalPair& p : pairs) {
          per_thread[t].push_back(shared.ScoreLineage(
              *fx.corpus.db, p.entry->query, p.contrib->tuple, p.lineage));
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(per_thread[t].size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(per_thread[t][i], serial[i])
            << "mode " << InferenceModeName(mode) << " thread " << t;
      }
    }
  }
  fx.trained.ranker->Configure(RankerConfig{}.WithMode(InferenceMode::kFloat));
}

}  // namespace
}  // namespace lshap
