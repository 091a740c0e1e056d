#include "common/crc32.h"

#include <array>

#include "common/cpu.h"
#include "common/crc32_clmul.h"

namespace ppm {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

#if defined(__x86_64__) || defined(__i386__)
/// Inputs shorter than this stay on the table: the fold needs four
/// 16-byte lanes to start.
constexpr std::size_t kFoldMinBytes = 64;

bool fold_available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1") &&
           detect_isa() != IsaLevel::kScalar;
  }();
  return available;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__) || defined(__i386__)
  if (bytes >= kFoldMinBytes && fold_available()) {
    const std::size_t folded = bytes & ~std::size_t{15};
    c = internal::crc32_fold_clmul(c, p, folded);
    p += folded;
    bytes -= folded;
  }
#endif
  for (std::size_t i = 0; i < bytes; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ppm
