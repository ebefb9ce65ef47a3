#include "ml/tensor.h"

#include <algorithm>

#include "ml/simd.h"

namespace lshap {

Tensor Tensor::Randn(size_t rows, size_t cols, float stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return t;
}

void Tensor::Add(const Tensor& other) {
  LSHAP_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::AddTopRows(const Tensor& top) {
  LSHAP_CHECK_EQ(cols_, top.cols_);
  LSHAP_CHECK_LE(top.rows_, rows_);
  for (size_t i = 0; i < top.data_.size(); ++i) data_[i] += top.data_[i];
}

void Tensor::AddScaled(const Tensor& other, float scale) {
  LSHAP_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor& c) {
  LSHAP_CHECK_EQ(a.cols(), b.rows());
  c.Resize(a.rows(), b.cols());
  SimdKernels().gemm_f32(a.data(), a.cols(), 1, b.data(), b.cols(), c.data(),
                         c.cols(), a.rows(), a.cols(), b.cols());
}

Tensor MatMulATB(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.rows(), b.rows());
  Tensor c(a.cols(), b.cols());
  // Row i of Aᵀ is column i of A: stride 1 between rows, a.cols() along p.
  SimdKernels().gemm_f32(a.data(), 1, a.cols(), b.data(), b.cols(), c.data(),
                         c.cols(), a.cols(), a.rows(), b.cols());
  return c;
}

Tensor MatMulABT(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.cols(), b.cols());
  Tensor bt;
  TransposeInto(b, bt);
  Tensor c;
  MatMulInto(a, bt, c);
  return c;
}

void TransposeInto(const Tensor& a, Tensor& at) {
  at.Resize(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.row_data(r);
    for (size_t c = 0; c < a.cols(); ++c) at.at(c, r) = row[c];
  }
}

void AddRowBroadcast(Tensor& a, const Tensor& bias) {
  LSHAP_CHECK_EQ(bias.rows(), 1u);
  LSHAP_CHECK_EQ(bias.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = a.row_data(r);
    const float* b = bias.row_data(0);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += b[c];
  }
}

}  // namespace lshap
