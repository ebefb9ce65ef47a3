#ifndef LSHAP_ML_SIMD_H_
#define LSHAP_ML_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace lshap {

// Runtime-dispatched SIMD kernels for MiniBERT's float products and the
// quantized inference path (DESIGN.md §12). Two implementations exist for
// every kernel — AVX2 and a portable scalar fallback — selected once behind
// a single dispatch point (the kernel table returned by SimdKernels()). The
// two are bit-equal by construction:
//
//  - the int8 GEMM accumulates in int32, where order is exact;
//  - the float GEMM gives each vector lane one output element, so every lane
//    runs the scalar loop's exact sequence: start from +0.0f, then one
//    rounded multiply and one rounded add per term in ascending p;
//  - the other float kernels share one polynomial exp approximation,
//    perform the same IEEE operation sequence per element, and reductions
//    (softmax max/sum, row-amax) use the same 8-lane accumulator tree in
//    both variants — the scalar code *emulates* the vector lanes rather than
//    summing linearly;
//  - simd.cc is compiled with -ffp-contract=off, and no kernel uses an FMA
//    instruction, so no a*b+c is ever fused: a fused multiply-add rounds
//    once and would move bits.
//
// The AVX2 entries run a row's last n mod 8 elements (the float GEMM: its
// last 1-3 columns; the int8 GEMM: its last m mod 8 channels) as one vector
// with masked loads and stores, padded with values that move no bit, and
// never call the scalar code: that code is
// built for baseline x86-64, so it is legacy SSE, which pays a state
// transition when it runs while the upper YMM halves are dirty.
//
// quant_test's KernelBitEquality suite pins this property on random shapes,
// which is what lets the AVX2-disabled CI leg certify the scalar fallback.

// gemm_i8's weight layout. A k×m int8 weight matrix is packed once into
// blocks of 8 output channels; block b holds channels [8b, 8b + 8) for every
// pair of inputs (2q, 2q + 1) as 16 int16 values, channel-major within the
// pair: w[2q][8b], w[2q+1][8b], w[2q][8b+1], w[2q+1][8b+1], ... One pair of
// one block is one 256-bit vector, ready for a pairwise multiply-add. k pads
// to even and m to a multiple of 8, with zero weights.
inline constexpr size_t GemmI8PadK(size_t k) { return (k + 1) & ~size_t{1}; }
inline constexpr size_t GemmI8PadM(size_t m) { return (m + 7) & ~size_t{7}; }
inline constexpr size_t GemmI8PackedSize(size_t k, size_t m) {
  return GemmI8PadK(k) * GemmI8PadM(m);
}
// Index of w[p][j] in the packed array of a k-input layer.
inline constexpr size_t GemmI8PackedIndex(size_t p, size_t j, size_t k) {
  return j / 8 * 8 * GemmI8PadK(k) + p / 2 * 16 + j % 8 * 2 + p % 2;
}

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

const char* SimdLevelName(SimdLevel level);

// Highest level this binary can run: compile-time availability (AVX2 is
// compiled out under LSHAP_NO_AVX2 or on non-x86 targets) intersected with
// runtime CPU detection.
SimdLevel DetectedSimdLevel();

// The level the kernel table currently dispatches to. Defaults to
// DetectedSimdLevel() on first use.
SimdLevel ActiveSimdLevel();

// Test/bench override. Requests above DetectedSimdLevel() are clamped.
// Returns the level actually installed. Not thread-safe against concurrent
// kernel calls — switch levels only from single-threaded setup code.
SimdLevel SetSimdLevel(SimdLevel level);

// The dispatch table. One indirect call per kernel invocation; resolved
// from ActiveSimdLevel().
struct SimdKernelTable {
  // Int8 GEMM with int32 sums over n×k·k×m:
  //   c[i·ldc + j] = Σ_p a[i·lda + p] · w[p][j]
  // for i < n, j < m, p < k, with k ≥ 1. A holds int8 codes, row-major
  // with stride lda ≥ k, and needs no padding; w is packed as
  // GemmI8PackedIndex lays it out. C is row-major with stride ldc ≥ m;
  // columns j ≥ m are not touched. Every code, in A and w, must lie in
  // [-127, 127], as both quantizers clamp them: then the scalar entry's
  // int16 sums of two products are exact, and the int32 worst case k·127²
  // stays below 2³¹ for every k up to 133,000. Integer sums are exact in
  // any order, so both entries give the same sums.
  void (*gemm_i8)(const int8_t* a, size_t lda, const int16_t* w, int32_t* c,
                  size_t ldc, size_t n, size_t k, size_t m);
  // In-place tanh-approximation GELU, 0.5·x·(1 + tanh(u)) with
  // u = √(2/π)·(x + 0.044715·x³) and tanh(u) = 1 − 2/(exp(2u) + 1) through
  // the shared exp approximation.
  void (*gelu)(float* x, size_t n);
  // GELU's backward: dx[i] = dy[i] · gelu'(x[i]). It runs `gelu`'s exact
  // operations up to 2/(exp(2u) + 1) = 1 − tanh(u), and takes
  // 1 + tanh(u) = exp(2u) · 2/(exp(2u) + 1) from them without cancelling.
  void (*gelu_backward)(const float* x, const float* dy, float* dx, size_t n);
  // In-place numerically-stable softmax. Entries at or below the masking
  // threshold (-1e30f) contribute exactly zero.
  void (*softmax)(float* x, size_t n);
  // Symmetric per-row int8 quantization: scale = amax/127, out[i] =
  // clamp(round_nearest_even(x[i]/scale), -127, 127). A zero row gets
  // scale 0 and all-zero codes. Writes exactly n codes.
  void (*quantize_row)(const float* x, size_t n, int8_t* out, float* scale);
  // Strided float GEMM over n×k·k×m:
  //   c[i·ldc + j] = Σ_p a[i·a_row + p·a_col] · b[p·ldb + j]
  // for i < n, j < m. A is read through two strides, so a transposed operand
  // needs no copy; B and C are row-major with row strides ldb, ldc ≥ m, so
  // they can be column slices of a wider matrix. Each output starts from
  // +0.0f and adds its terms in ascending p, with one rounded multiply and
  // one rounded add per term. Columns j ≥ m of C are not touched.
  void (*gemm_f32)(const float* a, size_t a_row, size_t a_col, const float* b,
                   size_t ldb, float* c, size_t ldc, size_t n, size_t k,
                   size_t m);
};

const SimdKernelTable& SimdKernels();

// Shared scalar exp approximation (exposed for tests): branchless
// round-to-nearest 2^n · poly(r) split, inputs clamped to [-87, 88], with
// an exact-zero cutoff below -87 so masked attention scores vanish.
float SimdExpApprox(float x);

}  // namespace lshap

#endif  // LSHAP_ML_SIMD_H_
