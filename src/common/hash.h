#ifndef LSHAP_COMMON_HASH_H_
#define LSHAP_COMMON_HASH_H_

// The two hash primitives of the code base, each defined once. FNV-1a
// checksums every file format (corpus shards and manifests, model files),
// fingerprints fact tables and routes cache keys; the SplitMix64 finalizer
// seeds Rng, mixes hash-table keys and draws fault-injection coins. Stored
// checksums and pinned fingerprints depend on their exact bits.

#include <cstddef>
#include <cstdint>

namespace lshap {

// 64-bit FNV-1a.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Folds `n` bytes into the running FNV-1a state `h` (start from kFnvOffset),
// so a hash can be taken over data that arrives in pieces.
inline uint64_t FnvUpdate(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// FNV-1a over one byte range.
inline uint64_t FnvChecksum(const void* data, size_t n) {
  return FnvUpdate(kFnvOffset, data, n);
}

// The SplitMix64 generator's increment, and its finalizer applied to
// x + kSplitMixGamma: a full-avalanche mix of one 64-bit word.
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

inline uint64_t MixWord(uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace lshap

#endif  // LSHAP_COMMON_HASH_H_
