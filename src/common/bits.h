// The 128-bit instruction word and the low-bit mask its codec uses.
#ifndef HDNN_COMMON_BITS_H_
#define HDNN_COMMON_BITS_H_

#include <cstdint>

namespace hdnn {

/// A 128-bit word addressed as two 64-bit halves over a flat bit index
/// space: bit 0 is the LSB of `lo`, bit 64 the LSB of `hi`, bit 127 the MSB
/// of `hi`.
struct Word128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Word128&, const Word128&) = default;
};

/// Returns a mask with `width` low bits set. width must be in [1, 64].
constexpr std::uint64_t LowMask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

}  // namespace hdnn

#endif  // HDNN_COMMON_BITS_H_
