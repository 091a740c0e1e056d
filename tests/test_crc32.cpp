// CRC-32: check values, zlib golden values, chaining, and agreement with a
// bitwise reference on every length, alignment and seed. Whichever path
// crc32() takes on this CPU (PCLMULQDQ fold or byte table) must give the
// same values; CI re-runs this suite with PPM_FORCE_ISA=scalar so both
// are covered.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace ppm {
namespace {

/// One bit at a time, straight from the definition.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t bytes,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

std::vector<std::uint8_t> pattern(std::size_t bytes, unsigned mul,
                                  unsigned add) {
  std::vector<std::uint8_t> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return v;
}

TEST(Crc32, CheckValues) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesZlibGoldenValues) {
  const auto block = pattern(4096, 7, 3);
  EXPECT_EQ(crc32(block.data(), block.size()), 0x5e4e1995u);
  const auto large = pattern(131072, 13, 1);
  EXPECT_EQ(crc32(large.data(), large.size()), 0x55f9a359u);
}

TEST(Crc32, ChainsAcrossSplitBuffers) {
  const auto block = pattern(4096, 7, 3);
  const std::uint32_t head = crc32(block.data(), 1000);
  EXPECT_EQ(crc32(block.data() + 1000, block.size() - 1000, head),
            0x5e4e1995u);
}

TEST(Crc32, AgreesWithBitwiseReference) {
  Rng rng(0xC3C32);
  std::vector<std::uint8_t> buf(70'000 + 64);
  rng.fill(buf.data(), buf.size());
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly short inputs around the fold's 64-byte threshold and 16-byte
    // steps, with every eighth up to the full 70 000 bytes.
    const std::size_t bytes = trial % 8 == 0 ? rng.bounded(70'001)
                                             : rng.bounded(600);
    const std::size_t offset = rng.bounded(64);
    const auto seed = static_cast<std::uint32_t>(rng.next());
    const std::uint8_t* p = buf.data() + offset;
    ASSERT_EQ(crc32(p, bytes, seed), bitwise_crc32(p, bytes, seed))
        << "bytes " << bytes << " offset " << offset << " seed " << seed;
  }
}

}  // namespace
}  // namespace ppm
