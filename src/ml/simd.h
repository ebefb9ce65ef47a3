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
//  - integer kernels (DotInt8) accumulate in int32, where order is exact;
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
// The AVX2 entries run a row's last n mod 8 elements (the GEMM: its last
// 1-3 columns) as one vector with masked loads and stores, padded with
// values that move no bit, and never call the scalar code: that code is
// built for baseline x86-64, so it is legacy SSE, which pays a state
// transition when it runs while the upper YMM halves are dirty.
//
// quant_test's KernelBitEquality suite pins this property on random shapes,
// which is what lets the AVX2-disabled CI leg certify the scalar fallback.

// Int8 kernels require operand lengths padded to this many elements (one
// 256-bit vector of int8).
inline constexpr size_t kInt8BlockElems = 32;

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
  // Σ a[i]·b[i] over n elements; n must be a multiple of kInt8BlockElems
  // (callers zero-pad). Exact in int32.
  int32_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t n);
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
  // scale 0 and all-zero codes. Writes n codes; the caller zero-pads the
  // tail of `out` up to the block boundary itself.
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
