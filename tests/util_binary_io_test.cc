#include "util/binary_io.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "crc32_oracle.h"

/// io::Crc32 is the checksum stored in every `.ggsa` section: it must
/// equal the bytewise reference on every length, alignment and chaining
/// split, or artifacts written before and after a change stop loading.

namespace goggles {
namespace {

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char kDigits[] = "123456789";
  EXPECT_EQ(io::Crc32(kDigits, 9), 0xCBF43926u);
  EXPECT_EQ(BytewiseCrc32(kDigits, 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = RandomBytes(64 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buffer.data() + offset;
      EXPECT_EQ(io::Crc32(p, len), BytewiseCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnTwoMebibytes) {
  const std::vector<unsigned char> buffer = RandomBytes(2 << 20, 11);
  EXPECT_EQ(io::Crc32(buffer.data(), buffer.size()),
            BytewiseCrc32(buffer.data(), buffer.size()));
}

TEST(Crc32Test, ChainingEqualsTheWholeBuffer) {
  const std::vector<unsigned char> buffer = RandomBytes(100, 13);
  const uint32_t whole = io::Crc32(buffer.data(), buffer.size());
  ASSERT_EQ(whole, BytewiseCrc32(buffer.data(), buffer.size()));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = io::Crc32(buffer.data(), split);
    EXPECT_EQ(io::Crc32(buffer.data() + split, buffer.size() - split, head),
              whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace goggles
