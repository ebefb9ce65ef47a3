#include "ml/simd.h"

// This translation unit must be built with -ffp-contract=off (set in
// CMakeLists.txt): the scalar fallbacks are bit-equal to the AVX2 kernels
// only if the compiler does not fuse their a*b+c sequences into FMAs.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#if !defined(LSHAP_NO_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define LSHAP_AVX2_COMPILED 1
#include <immintrin.h>
#endif

namespace lshap {

namespace {

constexpr float kLog2e = 1.442695040888963407f;
constexpr float kLn2Hi = 0.693359375f;          // high part of ln 2
constexpr float kLn2Lo = -2.12194440e-4f;       // ln 2 - kLn2Hi
constexpr float kExpLoCut = -87.0f;             // below: exact zero
constexpr float kExpHiCut = 88.0f;              // above: clamp
constexpr float kGeluC = 0.7978845608028654f;   // sqrt(2/pi)
constexpr float kGeluCubic = 0.044715f;
constexpr float kGeluCubic3 = 3.0f * kGeluCubic;  // d/dv of the cubic term
constexpr float kMaskedScore = -1e30f;

// ------------------------------------------------------------ shared bits

// 8-lane reduction trees shared verbatim by both variants (the AVX2 code
// stores its vector accumulator to an array and runs these), so reduction
// order can never diverge.
float ReduceMaxLanes(const float* l) {
  float p0 = std::max(l[0], l[4]);
  float p1 = std::max(l[1], l[5]);
  float p2 = std::max(l[2], l[6]);
  float p3 = std::max(l[3], l[7]);
  return std::max(std::max(p0, p2), std::max(p1, p3));
}

float ReduceSumLanes(const float* l) {
  const float p0 = l[0] + l[4];
  const float p1 = l[1] + l[5];
  const float p2 = l[2] + l[6];
  const float p3 = l[3] + l[7];
  return (p0 + p2) + (p1 + p3);
}

// Degree-6 Taylor-Horner exp(r) on [-ln2/2, ln2/2]; relative error ~1e-7,
// far below int8 quantization noise.
constexpr float kC6 = 1.0f / 720.0f;
constexpr float kC5 = 1.0f / 120.0f;
constexpr float kC4 = 1.0f / 24.0f;
constexpr float kC3 = 1.0f / 6.0f;
constexpr float kC2 = 0.5f;

float ExpScalar(float x) {
  const bool zero = x < kExpLoCut;
  x = std::min(x, kExpHiCut);
  x = std::max(x, kExpLoCut);
  const float t = x * kLog2e;
  const float n = std::floor(t + 0.5f);
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kC6;
  p = p * r + kC5;
  p = p * r + kC4;
  p = p * r + kC3;
  p = p * r + kC2;
  p = p * r + 1.0f;
  p = p * r + 1.0f;
  const int ne = static_cast<int>(n);
  const float scale = std::bit_cast<float>((ne + 127) << 23);
  const float result = p * scale;
  return zero ? 0.0f : result;
}

// GELU's tanh term through the shared exp: for u = √(2/π)·(v + 0.044715·v³)
// and e = exp(2u), returns frac = 2/(e + 1) = 1 − tanh(u) and stores e.
float GeluFrac(float v, float* e) {
  float v3 = v * v;
  v3 = v3 * v;
  float inner = v3 * kGeluCubic;
  inner = v + inner;
  const float u = inner * kGeluC;
  *e = ExpScalar(u + u);
  const float denom = *e + 1.0f;
  return 2.0f / denom;
}

// 0.5·v·(1 + tanh(u)) with tanh(u) = 1 − frac.
float GeluOne(float v) {
  float e;
  const float frac = GeluFrac(v, &e);
  const float th = 1.0f - frac;
  const float onep = 1.0f + th;
  const float half_v = 0.5f * v;
  return half_v * onep;
}

// GELU's derivative, 0.5·(1 + t) + 0.5·v·(1 − t)(1 + t)·√(2/π)·(1 +
// 3·0.044715·v²) for t = tanh(u). It takes 1 − t = frac and 1 + t = e·frac
// straight from GeluFrac rather than through t, so neither tail cancels:
// 1 ± t would round to 0 wherever |t| is within an ulp of 1.
float GeluGradOne(float v) {
  float e;
  const float frac = GeluFrac(v, &e);
  const float onep = e * frac;
  const float left = 0.5f * onep;
  const float sech2 = frac * onep;
  float du = v * v;
  du = du * kGeluCubic3;
  du = 1.0f + du;
  du = du * kGeluC;
  float right = 0.5f * v;
  right = right * sech2;
  right = right * du;
  return left + right;
}

// ------------------------------------------------------------ scalar path

// Codes of one row (AVX2: of a row block), widened to int16, are staged
// this many at a time; a longer k runs in chunks whose sums add up in C.
constexpr size_t kGemmI8Chunk = 512;

// The scalar twin lays each row's codes out in the packed weights' own
// pattern (a pair's two codes repeated for its 8 channels), so every block
// is one contiguous run of int16 products over 16 int32 lanes, which the
// compiler vectorizes; lane pairs (2c, 2c + 1) then sum to channel c. Two
// pairs' products are added in int16 first: with |codes| ≤ 127,
// |a·w + a'·w'| ≤ 2·127² < 2¹⁵, so that sum is exact.
void GemmI8Scalar(const int8_t* a, size_t lda, const int16_t* w, int32_t* c,
                  size_t ldc, size_t n, size_t k, size_t m) {
  const size_t block_stride = 8 * GemmI8PadK(k);
  int16_t pattern[8 * kGemmI8Chunk];
  for (size_t p0 = 0; p0 < k; p0 += kGemmI8Chunk) {
    const size_t kc = std::min(kGemmI8Chunk, k - p0);
    const size_t len = 8 * GemmI8PadK(kc);
    for (size_t i = 0; i < n; ++i) {
      const int8_t* row = a + i * lda + p0;
      for (size_t p = 0; p < kc; p += 2) {
        const int16_t a0 = row[p];
        const int16_t a1 = p + 1 < kc ? row[p + 1] : 0;
        for (size_t t = 0; t < 16; t += 2) {
          pattern[8 * p + t] = a0;
          pattern[8 * p + t + 1] = a1;
        }
      }
      for (size_t j = 0; j < m; j += 8) {
        const int16_t* wb = w + j / 8 * block_stride + 8 * p0;
        int32_t lanes[16] = {};
        size_t u = 0;
        for (; u + 32 <= len; u += 32) {
          for (size_t t = 0; t < 16; ++t) {
            lanes[t] += static_cast<int16_t>(pattern[u + t] * wb[u + t] +
                                             pattern[u + 16 + t] *
                                                 wb[u + 16 + t]);
          }
        }
        if (u < len) {
          for (size_t t = 0; t < 16; ++t) {
            lanes[t] += static_cast<int16_t>(pattern[u + t] * wb[u + t]);
          }
        }
        int32_t* out = c + i * ldc + j;
        for (size_t ch = 0; ch < std::min<size_t>(8, m - j); ++ch) {
          const int32_t sum = lanes[2 * ch] + lanes[2 * ch + 1];
          out[ch] = p0 == 0 ? sum : out[ch] + sum;
        }
      }
    }
  }
}

void GeluScalar(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = GeluOne(x[i]);
}

void GeluBackwardScalar(const float* x, const float* dy, float* dx,
                        size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] = dy[i] * GeluGradOne(x[i]);
}

void SoftmaxScalar(float* x, size_t n) {
  float lanes[8];
  std::fill(lanes, lanes + 8, kMaskedScore);
  for (size_t i = 0; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], x[i]);
  }
  const float m = ReduceMaxLanes(lanes);
  std::fill(lanes, lanes + 8, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    x[i] = ExpScalar(x[i] - m);
    lanes[i & 7] += x[i];
  }
  const float sum = ReduceSumLanes(lanes);
  const float inv = 1.0f / sum;
  for (size_t i = 0; i < n; ++i) x[i] *= inv;
}

void QuantizeRowScalar(const float* x, size_t n, int8_t* out, float* scale) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], std::fabs(x[i]));
  }
  const float amax = ReduceMaxLanes(lanes);
  if (amax == 0.0f) {
    *scale = 0.0f;
    std::fill(out, out + n, static_cast<int8_t>(0));
    return;
  }
  const float inv = 127.0f / amax;
  *scale = amax / 127.0f;
  for (size_t i = 0; i < n; ++i) {
    float q = std::nearbyint(x[i] * inv);  // nearest-even, like vroundps
    q = std::min(q, 127.0f);
    q = std::max(q, -127.0f);
    out[i] = static_cast<int8_t>(q);
  }
}

void GemmF32Scalar(const float* a, size_t a_row, size_t a_col,
                   const float* b, size_t ldb, float* c, size_t ldc, size_t n,
                   size_t k, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    float* crow = c + i * ldc;
    std::fill(crow, crow + m, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float av = a[i * a_row + p * a_col];
      const float* brow = b + p * ldb;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

constexpr SimdKernelTable kScalarTable = {
    GemmI8Scalar,
    GeluScalar,
    GeluBackwardScalar,
    SoftmaxScalar,
    QuantizeRowScalar,
    GemmF32Scalar,
};

// -------------------------------------------------------------- AVX2 path

#ifdef LSHAP_AVX2_COMPILED

#define LSHAP_AVX2_FN __attribute__((target("avx2")))

// Vector twin of ExpScalar: the same IEEE operation sequence per element
// (min/max, mul, floor, two-step Cody-Waite, Horner with separate mul/add —
// never fused), so results are bit-identical.
LSHAP_AVX2_FN __m256 ExpAvx2(__m256 x) {
  const __m256 lo_cut = _mm256_set1_ps(kExpLoCut);
  const __m256 zero_mask = _mm256_cmp_ps(x, lo_cut, _CMP_LT_OQ);
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHiCut));
  x = _mm256_max_ps(x, lo_cut);
  const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(kLog2e));
  const __m256 n = _mm256_floor_ps(_mm256_add_ps(t, _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kC6);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  const __m256i ne = _mm256_cvttps_epi32(n);  // n is integral: exact
  const __m256i bits =
      _mm256_slli_epi32(_mm256_add_epi32(ne, _mm256_set1_epi32(127)), 23);
  const __m256 scale = _mm256_castsi256_ps(bits);
  const __m256 result = _mm256_mul_ps(p, scale);
  return _mm256_andnot_ps(zero_mask, result);
}

// The first `count` (at most 8) lanes, for the masked loads and stores of a
// row's last n mod 8 elements (simd.h says why tails stay vector code).
LSHAP_AVX2_FN __m256i TailMask(size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Vector twin of GeluFrac.
LSHAP_AVX2_FN __m256 GeluFracAvx2(__m256 v, __m256* e) {
  __m256 v3 = _mm256_mul_ps(v, v);
  v3 = _mm256_mul_ps(v3, v);
  __m256 inner = _mm256_mul_ps(v3, _mm256_set1_ps(kGeluCubic));
  inner = _mm256_add_ps(v, inner);
  const __m256 u = _mm256_mul_ps(inner, _mm256_set1_ps(kGeluC));
  *e = ExpAvx2(_mm256_add_ps(u, u));
  const __m256 denom = _mm256_add_ps(*e, _mm256_set1_ps(1.0f));
  return _mm256_div_ps(_mm256_set1_ps(2.0f), denom);
}

// Vector twin of GeluOne.
LSHAP_AVX2_FN __m256 GeluOneAvx2(__m256 v) {
  const __m256 c_one = _mm256_set1_ps(1.0f);
  __m256 e;
  const __m256 frac = GeluFracAvx2(v, &e);
  const __m256 th = _mm256_sub_ps(c_one, frac);
  const __m256 onep = _mm256_add_ps(c_one, th);
  const __m256 half_v = _mm256_mul_ps(_mm256_set1_ps(0.5f), v);
  return _mm256_mul_ps(half_v, onep);
}

// Vector twin of GeluGradOne.
LSHAP_AVX2_FN __m256 GeluGradAvx2(__m256 v) {
  const __m256 c_half = _mm256_set1_ps(0.5f);
  __m256 e;
  const __m256 frac = GeluFracAvx2(v, &e);
  const __m256 onep = _mm256_mul_ps(e, frac);
  const __m256 left = _mm256_mul_ps(c_half, onep);
  const __m256 sech2 = _mm256_mul_ps(frac, onep);
  __m256 du = _mm256_mul_ps(v, v);
  du = _mm256_mul_ps(du, _mm256_set1_ps(kGeluCubic3));
  du = _mm256_add_ps(_mm256_set1_ps(1.0f), du);
  du = _mm256_mul_ps(du, _mm256_set1_ps(kGeluC));
  __m256 right = _mm256_mul_ps(c_half, v);
  right = _mm256_mul_ps(right, sech2);
  right = _mm256_mul_ps(right, du);
  return _mm256_add_ps(left, right);
}

// The masked-off tail lanes read 0, which GELU maps to 0; they are never
// stored.
LSHAP_AVX2_FN void GeluAvx2(float* x, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(x + i, GeluOneAvx2(_mm256_loadu_ps(x + i)));
  }
  if (n8 < n) {
    const __m256i mask = TailMask(n - n8);
    _mm256_maskstore_ps(x + n8, mask,
                        GeluOneAvx2(_mm256_maskload_ps(x + n8, mask)));
  }
}

LSHAP_AVX2_FN void GeluBackwardAvx2(const float* x, const float* dy,
                                    float* dx, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 grad = GeluGradAvx2(_mm256_loadu_ps(x + i));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), grad));
  }
  if (n8 < n) {
    const __m256i mask = TailMask(n - n8);
    const __m256 grad = GeluGradAvx2(_mm256_maskload_ps(x + n8, mask));
    _mm256_maskstore_ps(
        dx + n8, mask,
        _mm256_mul_ps(_mm256_maskload_ps(dy + n8, mask), grad));
  }
}

// The tail runs as one vector padded with −∞: lane i & 7 meets x[i] in the
// order the scalar entry's lanes do, a padded lane leaves the max alone and
// its exp is exactly 0, so it adds +0 to its sum lane, which changes no
// bit. (Padding with the mask value −1e30 would not do: in a fully masked
// row the max is −1e30, and the padded lanes would get weight 1.)
LSHAP_AVX2_FN void SoftmaxAvx2(float* x, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  const __m256i tail_mask = TailMask(n - n8);
  alignas(32) float lanes[8];

  __m256 vmax = _mm256_set1_ps(kMaskedScore);
  for (size_t i = 0; i < n8; i += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
  }
  const __m256 tail = _mm256_blendv_ps(
      _mm256_set1_ps(-std::numeric_limits<float>::infinity()),
      _mm256_maskload_ps(x + n8, tail_mask), _mm256_castsi256_ps(tail_mask));
  vmax = _mm256_max_ps(vmax, tail);
  _mm256_store_ps(lanes, vmax);
  const float m = ReduceMaxLanes(lanes);

  const __m256 vm = _mm256_set1_ps(m);
  __m256 vsum = _mm256_setzero_ps();
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm));
    _mm256_storeu_ps(x + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  const __m256 tail_e = ExpAvx2(_mm256_sub_ps(tail, vm));
  vsum = _mm256_add_ps(vsum, tail_e);
  _mm256_store_ps(lanes, vsum);
  const float sum = ReduceSumLanes(lanes);

  const float inv = 1.0f / sum;
  const __m256 vinv = _mm256_set1_ps(inv);
  for (size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
  }
  _mm256_maskstore_ps(x + n8, tail_mask, _mm256_mul_ps(tail_e, vinv));
}

// Eight codes, rounded to nearest-even and clamped, packed into the low
// eight bytes of the result.
LSHAP_AVX2_FN __m128i QuantizeEightAvx2(__m256 x, __m256 vinv) {
  __m256 q = _mm256_mul_ps(x, vinv);
  q = _mm256_round_ps(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  q = _mm256_min_ps(q, _mm256_set1_ps(127.0f));
  q = _mm256_max_ps(q, _mm256_set1_ps(-127.0f));
  const __m256i qi = _mm256_cvtps_epi32(q);
  const __m128i packed16 = _mm_packs_epi32(_mm256_castsi256_si128(qi),
                                           _mm256_extracti128_si256(qi, 1));
  return _mm_packs_epi16(packed16, _mm_setzero_si128());
}

// The tail's masked-off lanes read 0, which leaves the amax and its code
// alone; only the live codes are written.
LSHAP_AVX2_FN void QuantizeRowAvx2(const float* x, size_t n, int8_t* out,
                                   float* scale) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  const __m256i tail_mask = TailMask(n - n8);
  alignas(32) float lanes[8];
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);

  __m256 vamax = _mm256_setzero_ps();
  for (size_t i = 0; i < n8; i += 8) {
    vamax = _mm256_max_ps(vamax,
                          _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(x + i)));
  }
  const __m256 tail = _mm256_maskload_ps(x + n8, tail_mask);
  vamax = _mm256_max_ps(vamax, _mm256_andnot_ps(sign_mask, tail));
  _mm256_store_ps(lanes, vamax);
  const float amax = ReduceMaxLanes(lanes);
  if (amax == 0.0f) {
    *scale = 0.0f;
    std::fill(out, out + n, static_cast<int8_t>(0));
    return;
  }
  const float inv = 127.0f / amax;
  *scale = amax / 127.0f;

  const __m256 vinv = _mm256_set1_ps(inv);
  for (size_t i = 0; i < n8; i += 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     QuantizeEightAvx2(_mm256_loadu_ps(x + i), vinv));
  }
  if (n8 < n) {
    int8_t codes[8];
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes),
                     QuantizeEightAvx2(tail, vinv));
    for (size_t i = n8; i < n; ++i) out[i] = codes[i - n8];
  }
}

// The GEMM's vector widths: 8 lanes of AVX and 4 of SSE, for the column
// tail (attention's 12-wide head slices are 8 + 4).
struct Lanes8 {
  using V = __m256;
  static constexpr size_t kWidth = 8;
  LSHAP_AVX2_FN static V Zero() { return _mm256_setzero_ps(); }
  LSHAP_AVX2_FN static V Splat(const float* x) {
    return _mm256_broadcast_ss(x);
  }
  LSHAP_AVX2_FN static V Load(const float* x) { return _mm256_loadu_ps(x); }
  LSHAP_AVX2_FN static void Store(float* x, V v) { _mm256_storeu_ps(x, v); }
  LSHAP_AVX2_FN static V MulAdd(V acc, V a, V b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
};

struct Lanes4 {
  using V = __m128;
  static constexpr size_t kWidth = 4;
  LSHAP_AVX2_FN static V Zero() { return _mm_setzero_ps(); }
  LSHAP_AVX2_FN static V Splat(const float* x) { return _mm_broadcast_ss(x); }
  LSHAP_AVX2_FN static V Load(const float* x) { return _mm_loadu_ps(x); }
  LSHAP_AVX2_FN static void Store(float* x, V v) { _mm_storeu_ps(x, v); }
  LSHAP_AVX2_FN static V MulAdd(V acc, V a, V b) {
    return _mm_add_ps(acc, _mm_mul_ps(a, b));
  }
};

// The last 1-3 columns: 4 lanes whose loads and stores are masked to the
// columns that exist. A masked-off lane reads 0 and is never stored, so each
// live lane still computes its own column.
struct MaskedLanes4 : Lanes4 {
  __m128i mask;
  LSHAP_AVX2_FN V Load(const float* x) const {
    return _mm_maskload_ps(x, mask);
  }
  LSHAP_AVX2_FN void Store(float* x, V v) const {
    _mm_maskstore_ps(x, mask, v);
  }
};

// One R-row × (NV·kWidth)-column tile of C, held in registers for the whole
// p loop. MulAdd is a rounded multiply then a rounded add — never an FMA.
template <class L, size_t R, size_t NV>
LSHAP_AVX2_FN inline void GemmTile(const L& lanes, const float* a,
                                   size_t a_row, size_t a_col, const float* b,
                                   size_t ldb, float* c, size_t ldc,
                                   size_t k) {
  typename L::V acc[R][NV];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < NV; ++v) acc[r][v] = L::Zero();
  }
  for (size_t p = 0; p < k; ++p) {
    typename L::V bv[NV];
    for (size_t v = 0; v < NV; ++v) {
      bv[v] = lanes.Load(b + p * ldb + v * L::kWidth);
    }
    for (size_t r = 0; r < R; ++r) {
      const typename L::V av = L::Splat(a + r * a_row + p * a_col);
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = L::MulAdd(acc[r][v], av, bv[v]);
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < NV; ++v) {
      lanes.Store(c + r * ldc + v * L::kWidth, acc[r][v]);
    }
  }
}

// One column tile over every row of C, four rows at a time.
template <class L, size_t NV>
LSHAP_AVX2_FN inline void GemmRows(const L& lanes, const float* a,
                                   size_t a_row, size_t a_col, const float* b,
                                   size_t ldb, float* c, size_t ldc, size_t n,
                                   size_t k) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    GemmTile<L, 4, NV>(lanes, a + i * a_row, a_row, a_col, b, ldb,
                       c + i * ldc, ldc, k);
  }
  for (; i < n; ++i) {
    GemmTile<L, 1, NV>(lanes, a + i * a_row, a_row, a_col, b, ldb,
                       c + i * ldc, ldc, k);
  }
}

// Covers columns [j, m) in tiles NV·kWidth wide while whole tiles fit;
// returns the first column left over.
template <class L, size_t NV>
LSHAP_AVX2_FN inline size_t GemmColumns(const float* a, size_t a_row,
                                        size_t a_col, const float* b,
                                        size_t ldb, float* c, size_t ldc,
                                        size_t n, size_t k, size_t m,
                                        size_t j) {
  constexpr size_t kTile = NV * L::kWidth;
  for (; j + kTile <= m; j += kTile) {
    GemmRows<L, NV>(L{}, a, a_row, a_col, b + j, ldb, c + j, ldc, n, k);
  }
  return j;
}

// Lane j of every accumulator computes output column j alone, in the scalar
// entry's order, so the two entries agree bit for bit.
LSHAP_AVX2_FN void GemmF32Avx2(const float* a, size_t a_row, size_t a_col,
                               const float* b, size_t ldb, float* c,
                               size_t ldc, size_t n, size_t k, size_t m) {
  size_t j = 0;
  j = GemmColumns<Lanes8, 2>(a, a_row, a_col, b, ldb, c, ldc, n, k, m, j);
  j = GemmColumns<Lanes8, 1>(a, a_row, a_col, b, ldb, c, ldc, n, k, m, j);
  j = GemmColumns<Lanes4, 1>(a, a_row, a_col, b, ldb, c, ldc, n, k, m, j);
  if (j < m) {
    MaskedLanes4 lanes;
    lanes.mask = _mm256_castsi256_si128(TailMask(m - j));
    GemmRows<MaskedLanes4, 1>(lanes, a, a_row, a_col, b + j, ldb, c + j, ldc,
                              n, k);
  }
}

// ---- int8 GEMM

// The int32 sums of one 8-channel block: plain stores, or the last m mod 8
// channels through a mask. Loads read back a chunk's partial sums.
struct I8Lanes {
  LSHAP_AVX2_FN static __m256i Load(const int32_t* c) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c));
  }
  LSHAP_AVX2_FN static void Store(int32_t* c, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), v);
  }
};

struct MaskedI8Lanes {
  __m256i mask;
  LSHAP_AVX2_FN __m256i Load(const int32_t* c) const {
    return _mm256_maskload_epi32(c, mask);
  }
  LSHAP_AVX2_FN void Store(int32_t* c, __m256i v) const {
    _mm256_maskstore_epi32(c, mask, v);
  }
};

// One R-row × (NV·8)-channel tile of C over `pairs` input pairs, held in
// registers. Each step broadcasts one row's pair of int16 codes to every
// lane and multiply-adds it against one packed pair vector per block.
template <class L, size_t R, size_t NV>
LSHAP_AVX2_FN inline void GemmI8Tile(const L& lanes, const int16_t* a,
                                     const int16_t* w, size_t block_stride,
                                     int32_t* c, size_t ldc, size_t pairs,
                                     bool accumulate) {
  __m256i acc[R][NV];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < NV; ++v) {
      acc[r][v] = accumulate ? lanes.Load(c + r * ldc + v * 8)
                             : _mm256_setzero_si256();
    }
  }
  for (size_t q = 0; q < pairs; ++q) {
    __m256i wv[NV];
    for (size_t v = 0; v < NV; ++v) {
      wv[v] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(w + v * block_stride + q * 16));
    }
    for (size_t r = 0; r < R; ++r) {
      int32_t pair = 0;
      std::memcpy(&pair, a + r * kGemmI8Chunk + 2 * q, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] =
            _mm256_add_epi32(acc[r][v], _mm256_madd_epi16(av, wv[v]));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < NV; ++v) {
      lanes.Store(c + r * ldc + v * 8, acc[r][v]);
    }
  }
}

// R rows of C for inputs [p0, p0 + kc): widens their codes once, then runs
// every channel tile, 16 channels while they fit, then 8, then the masked
// rest.
template <size_t R>
LSHAP_AVX2_FN inline void GemmI8Rows(const int8_t* a, size_t lda,
                                     const int16_t* w, size_t block_stride,
                                     int32_t* c, size_t ldc, size_t p0,
                                     size_t kc, size_t m) {
  alignas(32) int16_t wide[R * kGemmI8Chunk];
  for (size_t r = 0; r < R; ++r) {
    const int8_t* src = a + r * lda + p0;
    int16_t* dst = wide + r * kGemmI8Chunk;
    size_t p = 0;
    for (; p + 16 <= kc; p += 16) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(dst + p),
          _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + p))));
    }
    for (; p < kc; ++p) dst[p] = src[p];
    // An odd k's last pair meets a zero weight; its second code is 0 too.
    if (kc % 2 == 1) dst[kc] = 0;
  }
  const size_t pairs = (kc + 1) / 2;
  const bool accumulate = p0 > 0;
  w += 8 * p0;  // the chunk's first pair in every block
  size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    GemmI8Tile<I8Lanes, R, 2>(I8Lanes{}, wide, w + j / 8 * block_stride,
                              block_stride, c + j, ldc, pairs, accumulate);
  }
  for (; j + 8 <= m; j += 8) {
    GemmI8Tile<I8Lanes, R, 1>(I8Lanes{}, wide, w + j / 8 * block_stride,
                              block_stride, c + j, ldc, pairs, accumulate);
  }
  if (j < m) {
    const MaskedI8Lanes lanes{TailMask(m - j)};
    GemmI8Tile<MaskedI8Lanes, R, 1>(lanes, wide, w + j / 8 * block_stride,
                                    block_stride, c + j, ldc, pairs,
                                    accumulate);
  }
}

// Four rows at a time, then one; each row block walks k in chunks.
LSHAP_AVX2_FN void GemmI8Avx2(const int8_t* a, size_t lda, const int16_t* w,
                              int32_t* c, size_t ldc, size_t n, size_t k,
                              size_t m) {
  const size_t block_stride = 8 * GemmI8PadK(k);
  for (size_t p0 = 0; p0 < k; p0 += kGemmI8Chunk) {
    const size_t kc = std::min(kGemmI8Chunk, k - p0);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      GemmI8Rows<4>(a + i * lda, lda, w, block_stride, c + i * ldc, ldc, p0,
                    kc, m);
    }
    for (; i < n; ++i) {
      GemmI8Rows<1>(a + i * lda, lda, w, block_stride, c + i * ldc, ldc, p0,
                    kc, m);
    }
  }
}

constexpr SimdKernelTable kAvx2Table = {
    GemmI8Avx2,
    GeluAvx2,
    GeluBackwardAvx2,
    SoftmaxAvx2,
    QuantizeRowAvx2,
    GemmF32Avx2,
};

#undef LSHAP_AVX2_FN

#endif  // LSHAP_AVX2_COMPILED

// ---------------------------------------------------------------- dispatch

std::atomic<int> g_active_level{-1};  // -1 = not yet initialized

SimdLevel Detect() {
#ifdef LSHAP_AVX2_COMPILED
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = Detect();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  int level = g_active_level.load(std::memory_order_acquire);
  if (level < 0) {
    level = static_cast<int>(DetectedSimdLevel());
    g_active_level.store(level, std::memory_order_release);
  }
  return static_cast<SimdLevel>(level);
}

SimdLevel SetSimdLevel(SimdLevel level) {
  if (static_cast<int>(level) > static_cast<int>(DetectedSimdLevel())) {
    level = DetectedSimdLevel();
  }
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

const SimdKernelTable& SimdKernels() {
#ifdef LSHAP_AVX2_COMPILED
  if (ActiveSimdLevel() == SimdLevel::kAvx2) return kAvx2Table;
#endif
  return kScalarTable;
}

float SimdExpApprox(float x) { return ExpScalar(x); }

}  // namespace lshap
