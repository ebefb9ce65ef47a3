#include "ml/tensor.h"

#include <algorithm>

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

void Tensor::AddScaled(const Tensor& other, float scale) {
  LSHAP_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor& c) {
  LSHAP_CHECK_EQ(a.cols(), b.rows());
  c.Resize(a.rows(), b.cols());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row_data(i);
    float* crow = c.row_data(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row_data(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor MatMulATB(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.rows(), b.rows());
  Tensor c(a.cols(), b.cols());
  const size_t k = a.rows();
  const size_t n = a.cols();
  const size_t m = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.row_data(p);
    const float* brow = b.row_data(p);
    for (size_t i = 0; i < n; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row_data(i);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulABT(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.cols(), b.cols());
  Tensor c(a.rows(), b.rows());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row_data(i);
    float* crow = c.row_data(i);
    for (size_t j = 0; j < m; ++j) {
      const float* brow = b.row_data(j);
      float dot = 0.0f;
      for (size_t p = 0; p < k; ++p) dot += arow[p] * brow[p];
      crow[j] = dot;
    }
  }
  return c;
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
