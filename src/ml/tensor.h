#ifndef LSHAP_ML_TENSOR_H_
#define LSHAP_ML_TENSOR_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace lshap {

// A dense row-major 2-D float matrix. The entire neural stack works on
// (sequence_length x feature) matrices; batching is a loop over sequences
// with gradient accumulation, which keeps every op two-dimensional.
class Tensor {
 public:
  Tensor() = default;
  Tensor(size_t rows, size_t cols) : rows_(rows), cols_(cols),
                                     data_(rows * cols, 0.0f) {}

  static Tensor Zeros(size_t rows, size_t cols) { return Tensor(rows, cols); }

  // Gaussian init with standard deviation `stddev`.
  static Tensor Randn(size_t rows, size_t cols, float stddev, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* row_data(size_t r) { return data_.data() + r * cols_; }
  const float* row_data(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  // Reshape to rows×cols with all elements zeroed, reusing the existing
  // allocation when capacity suffices (the InferenceArena hot path).
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  // Becomes a copy of the first `rows` rows of `src` (another tensor).
  void AssignTopRows(const Tensor& src, size_t rows) {
    LSHAP_CHECK_LE(rows, src.rows_);
    rows_ = rows;
    cols_ = src.cols_;
    data_.assign(src.data_.begin(), src.data_.begin() + rows * src.cols_);
  }

  // this += other (same shape).
  void Add(const Tensor& other);
  // The first top.rows() rows += top (same cols).
  void AddTopRows(const Tensor& top);
  // this += scale * other.
  void AddScaled(const Tensor& other, float scale);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

// The products below run the float GEMM of the SIMD kernel table
// (ml/simd.h): each output is summed from +0 in ascending inner index, so
// the result has the same bits at every SIMD level.
//
// C = A · B into a caller-owned output (resized here). Shapes:
// (n×k)·(k×m) → (n×m).
void MatMulInto(const Tensor& a, const Tensor& b, Tensor& c);
// C = Aᵀ · B. Shapes: (k×n)ᵀ·(k×m) → (n×m).
Tensor MatMulATB(const Tensor& a, const Tensor& b);
// C = A · Bᵀ. Shapes: (n×k)·(m×k)ᵀ → (n×m).
Tensor MatMulABT(const Tensor& a, const Tensor& b);

// at = aᵀ into a caller-owned output (resized here).
void TransposeInto(const Tensor& a, Tensor& at);

// out[r] = a[r] + bias[0] for a 1×cols bias.
void AddRowBroadcast(Tensor& a, const Tensor& bias);

}  // namespace lshap

#endif  // LSHAP_ML_TENSOR_H_
