// GFNI region kernels (GF2P8AFFINEQB + AVX-512BW). Multiplication by a
// constant c is linear over GF(2), so on one byte it is an 8×8 bit matrix,
// and GF2P8AFFINEQB applies a matrix per qword to 64 bytes at once:
//  * w=8 : one affine per 64 bytes, the operand's matrix in every qword.
//  * w=16: vpshufb gathers each 128-bit lane's low symbol bytes L into its
//          low qword and the high bytes H into its high qword. One affine
//          with per-qword matrices {L→L, H→H} and one with {L→H, H→L}
//          give the four partial products; swapping the second's qwords
//          lines them up so one XOR yields [low bytes | high bytes], and a
//          last vpshufb interleaves them back into symbols.
// The last partial vector runs masked, so any whole number of symbols
// stays in this unit.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// One 128-bit pair of affine matrices, in every lane.
inline __m512i matrices(const std::uint8_t* tables, unsigned first) {
  const std::uint8_t* m = tables + affine_offset<16>() + 8 * first;
  return _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(m)));
}

// dst (^)= mul(src) over whole vectors, then one masked vector for the
// remaining bytes.
template <bool Xor, typename Mul>
inline void run(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
                Mul mul) {
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    __m512i p = mul(_mm512_loadu_si512(src + i));
    if constexpr (Xor) p = _mm512_xor_si512(p, _mm512_loadu_si512(dst + i));
    _mm512_storeu_si512(dst + i, p);
  }
  if (i < bytes) {
    const __mmask64 m = (__mmask64{1} << (bytes - i)) - 1;
    __m512i p = mul(_mm512_maskz_loadu_epi8(m, src + i));
    if constexpr (Xor) {
      p = _mm512_xor_si512(p, _mm512_maskz_loadu_epi8(m, dst + i));
    }
    _mm512_mask_storeu_epi8(dst + i, m, p);
  }
}

template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const std::uint8_t* tables) {
  long long matrix;
  std::memcpy(&matrix, tables + affine_offset<8>(), 8);
  const __m512i a = _mm512_set1_epi64(matrix);
  run<Xor>(dst, src, bytes, [a](__m512i v) {
    return _mm512_gf2p8affine_epi64_epi8(v, a, 0);
  });
}

template <bool Xor>
void run_w16(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const std::uint8_t* tables) {
  const __m512i split = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15));
  const __m512i merge = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
  const __m512i same = matrices(tables, 0);   // {L→L, H→H}
  const __m512i cross = matrices(tables, 2);  // {L→H, H→L}
  run<Xor>(dst, src, bytes, [=](__m512i v) {
    const __m512i x = _mm512_shuffle_epi8(v, split);  // [L | H] per lane
    const __m512i p_same = _mm512_gf2p8affine_epi64_epi8(x, same, 0);
    const __m512i p_cross = _mm512_gf2p8affine_epi64_epi8(x, cross, 0);
    const __m512i lo_hi = _mm512_xor_si512(
        p_same, _mm512_shuffle_epi32(p_cross, _MM_PERM_BADC));
    return _mm512_shuffle_epi8(lo_hi, merge);
  });
}

}  // namespace

void mult_xor_gfni_w8(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t bytes, const std::uint8_t* tables) {
  run_w8<true>(dst, src, bytes, tables);
}
void mult_xor_gfni_w16(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables) {
  run_w16<true>(dst, src, bytes, tables);
}
void mult_over_gfni_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables) {
  run_w8<false>(dst, src, bytes, tables);
}
void mult_over_gfni_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables) {
  run_w16<false>(dst, src, bytes, tables);
}

}  // namespace ppm::gf::internal

#endif  // x86
