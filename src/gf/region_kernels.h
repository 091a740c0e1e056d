// Internal declarations of the per-ISA region kernels.
//
// Every kernel implements dst (^)= c * src symbol-wise over a whole number
// of symbols, reading c from its prepared tables (Field::prepare): the
// nibble-table kernels the byte-sliced tables, the GFNI kernels the affine
// matrices. Tables may sit at any address. The SIMD translation units are
// compiled with the matching -m flags; callers must only invoke them when
// common/cpu.h reports support.
#pragma once

#include "gf/galois_field.h"

namespace ppm::gf::internal {

/// Nibble table (position k, symbol byte b) of width-W operand tables.
template <unsigned W>
constexpr std::size_t nibble_offset(unsigned k, unsigned b) {
  return 16 * (k * (W / 8) + b);
}

/// The GF2P8AFFINEQB matrices (w ≤ 16) of width-W tables, one qword each.
template <unsigned W>
constexpr std::size_t affine_offset() {
  return W * W / 2;
}

// ----- scalar (always available) -----
void mult_xor_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_xor_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_xor_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_over_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_over_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables);
void mult_over_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables);
void xor_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

#if defined(__x86_64__) || defined(__i386__)
// ----- SSSE3 -----
void mult_xor_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_xor_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_xor_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_over_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_over_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_over_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void xor_sse2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

// ----- AVX2 -----
void mult_xor_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t bytes, const std::uint8_t* tables);
void mult_xor_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_xor_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void xor_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

// ----- AVX-512BW -----
void mult_xor_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
void mult_xor_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_xor_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables);
void mult_over_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables);
void xor_avx512(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes);

// ----- GFNI + AVX-512BW (w = 8 and 16; w = 32 stays on AVX-512) -----
void mult_xor_gfni_w8(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t bytes, const std::uint8_t* tables);
void mult_xor_gfni_w16(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_over_gfni_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables);
void mult_over_gfni_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables);
#endif

}  // namespace ppm::gf::internal
