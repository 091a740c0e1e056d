// Portable scalar region kernels: per-symbol byte-sliced nibble-table
// lookups.
// These are the reference implementations every SIMD kernel is tested
// against, and the fallback on non-x86 hosts.
#include <cstring>

#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// Shared body for the w=8 kernels; Xor selects accumulate vs overwrite.
template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const std::uint8_t* tables) {
  const std::uint8_t* lo = tables + nibble_offset<8>(0, 0);  // c * v
  const std::uint8_t* hi = tables + nibble_offset<8>(1, 0);  // c * (v << 4)
  for (std::size_t i = 0; i < bytes; ++i) {
    const auto p =
        static_cast<std::uint8_t>(lo[src[i] & 0xF] ^ hi[src[i] >> 4]);
    if constexpr (Xor) {
      dst[i] ^= p;
    } else {
      dst[i] = p;
    }
  }
}

// w = 16 and 32: byte b of the product is the XOR, over nibble positions
// k, of table(k, b) at nibble k of the symbol.
template <unsigned W, bool Xor>
void run_wide(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
              const std::uint8_t* tables) {
  constexpr unsigned kSym = W / 8;
  for (std::size_t i = 0; i + kSym <= bytes; i += kSym) {
    Element s = 0;
    std::memcpy(&s, src + i, kSym);
    Element p = 0;
    for (unsigned k = 0; k < W / 4; ++k) {
      const unsigned v = (s >> (4 * k)) & 0xF;
      for (unsigned b = 0; b < kSym; ++b) {
        p ^= Element{tables[nibble_offset<W>(k, b) + v]} << (8 * b);
      }
    }
    if constexpr (Xor) {
      Element d = 0;
      std::memcpy(&d, dst + i, kSym);
      p ^= d;
    }
    std::memcpy(dst + i, &p, kSym);
  }
}

}  // namespace

void mult_xor_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables) {
  run_w8<true>(dst, src, bytes, tables);
}
void mult_xor_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_wide<16, true>(dst, src, bytes, tables);
}
void mult_xor_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_wide<32, true>(dst, src, bytes, tables);
}
void mult_over_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_w8<false>(dst, src, bytes, tables);
}
void mult_over_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables) {
  run_wide<16, false>(dst, src, bytes, tables);
}
void mult_over_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables) {
  run_wide<32, false>(dst, src, bytes, tables);
}

void xor_scalar(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t d;
    std::uint64_t s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < bytes; ++i) dst[i] ^= src[i];
}

}  // namespace ppm::gf::internal
