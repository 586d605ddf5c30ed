#pragma once

#include <cstddef>
#include <cstdint>

/// The bytewise CRC-32 (reflected IEEE polynomial 0xEDB88320, init and
/// xor-out 0xFFFFFFFF) that `.ggsa` artifacts have always been written
/// with: the reference `io::Crc32` must match on every input.

namespace goggles {

inline uint32_t BytewiseCrc32(const void* data, size_t n, uint32_t crc = 0) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace goggles
