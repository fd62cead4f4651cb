// Small math helpers.
#ifndef HDNN_COMMON_MATH_UTIL_H_
#define HDNN_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace hdnn {

/// ceil(a / b) for non-negative a, positive b.
template <typename T>
constexpr T CeilDiv(T a, T b) {
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b` (b > 0).
template <typename T>
constexpr T RoundUp(T a, T b) {
  return CeilDiv(a, b) * b;
}

/// True iff v is a power of two (v > 0).
constexpr bool IsPowerOfTwo(std::int64_t v) {
  return v > 0 && (v & (v - 1)) == 0;
}

/// Next power of two >= v (v >= 1).
constexpr std::int64_t NextPowerOfTwo(std::int64_t v) {
  std::int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// floor(log2(v)) for v >= 1.
constexpr int Log2Floor(std::int64_t v) {
  int r = -1;
  while (v > 0) {
    v >>= 1;
    ++r;
  }
  return r;
}

/// One FNV-1a step: folds the 8 bytes of `v` into `h` (seed `h` with the
/// offset basis 0xcbf29ce484222325). The runtime's hashes (config, model
/// structure, compile-cache key, weight-image fingerprint) all use it.
inline void HashMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

/// Nearest-rank percentile of an ascending-sorted sample (q in [0,1]): the
/// ceil(q * n)-th smallest value, the smallest for q = 0, and 0 for an
/// empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

}  // namespace hdnn

#endif  // HDNN_COMMON_MATH_UTIL_H_
