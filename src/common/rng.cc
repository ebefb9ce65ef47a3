#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace lshap {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  // The lanes are successive outputs of a SplitMix64 generator.
  for (auto& lane : s_) {
    lane = MixWord(seed);
    seed += kSplitMixGamma;
  }
  have_spare_gaussian_ = false;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  LSHAP_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  LSHAP_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_spare_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

uint64_t Rng::NextZipf(uint64_t n, double s) {
  ZipfSampler sampler(n, s);
  return sampler.Sample(*this);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  LSHAP_CHECK_LE(k, n);
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: first k positions become the sample.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + NextBounded(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n) {
  LSHAP_CHECK_GT(n, 0u);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace lshap
