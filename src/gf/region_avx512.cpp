// AVX-512BW region kernels: the nibble-table algorithm at 512 bits.
// _mm512_shuffle_epi8 shuffles within each 128-bit lane, so the 16-entry
// tables broadcast to all four lanes and the SSSE3 index math carries over.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// The 16-entry table for nibble position k, symbol byte b, in every
// 128-bit lane.
template <unsigned W>
inline __m512i table(const std::uint8_t* tables, unsigned k, unsigned b) {
  const std::uint8_t* t = tables + nibble_offset<W>(k, b);
  return _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

inline __m512i loadu(const std::uint8_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void storeu(std::uint8_t* p, __m512i v) {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

template <bool Xor>
inline void emit(std::uint8_t* dst, __m512i product) {
  if constexpr (Xor) {
    storeu(dst, _mm512_xor_si512(product, loadu(dst)));
  } else {
    storeu(dst, product);
  }
}

template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const std::uint8_t* tables) {
  const __m512i tlo = table<8>(tables, 0, 0);
  const __m512i thi = table<8>(tables, 1, 0);
  const __m512i mask = _mm512_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    const __m512i v = loadu(src + i);
    const __m512i lo = _mm512_and_si512(v, mask);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi64(v, 4), mask);
    const __m512i p = _mm512_xor_si512(_mm512_shuffle_epi8(tlo, lo),
                                       _mm512_shuffle_epi8(thi, hi));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_avx2_w8(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_avx2_w8(dst + i, src + i, bytes - i, tables);
    }
  }
}

template <bool Xor>
void run_w16(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const std::uint8_t* tables) {
  __m512i lo_tab[4];
  __m512i hi_tab[4];
  for (unsigned k = 0; k < 4; ++k) {
    lo_tab[k] = table<16>(tables, k, 0);
    hi_tab[k] = table<16>(tables, k, 1);
  }
  const __m512i nib = _mm512_set1_epi8(0x0F);
  const __m512i even = _mm512_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    const __m512i v = loadu(src + i);
    const __m512i lo = _mm512_and_si512(v, nib);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi64(v, 4), nib);
    const __m512i n0 = _mm512_and_si512(lo, even);
    const __m512i n1 = _mm512_and_si512(hi, even);
    const __m512i n2 = _mm512_srli_epi16(lo, 8);
    const __m512i n3 = _mm512_srli_epi16(hi, 8);
    __m512i pl = _mm512_shuffle_epi8(lo_tab[0], n0);
    pl = _mm512_xor_si512(pl, _mm512_shuffle_epi8(lo_tab[1], n1));
    pl = _mm512_xor_si512(pl, _mm512_shuffle_epi8(lo_tab[2], n2));
    pl = _mm512_xor_si512(pl, _mm512_shuffle_epi8(lo_tab[3], n3));
    __m512i ph = _mm512_shuffle_epi8(hi_tab[0], n0);
    ph = _mm512_xor_si512(ph, _mm512_shuffle_epi8(hi_tab[1], n1));
    ph = _mm512_xor_si512(ph, _mm512_shuffle_epi8(hi_tab[2], n2));
    ph = _mm512_xor_si512(ph, _mm512_shuffle_epi8(hi_tab[3], n3));
    const __m512i p = _mm512_xor_si512(pl, _mm512_slli_epi16(ph, 8));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_avx2_w16(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_avx2_w16(dst + i, src + i, bytes - i, tables);
    }
  }
}

template <bool Xor>
void run_w32(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const std::uint8_t* tables) {
  __m512i tab[8][4];
  for (unsigned k = 0; k < 8; ++k) {
    for (unsigned b = 0; b < 4; ++b) tab[k][b] = table<32>(tables, k, b);
  }
  const __m512i nib = _mm512_set1_epi8(0x0F);
  const __m512i low32 = _mm512_set1_epi32(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    const __m512i v = loadu(src + i);
    const __m512i lo = _mm512_and_si512(v, nib);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi64(v, 4), nib);
    __m512i idx[8];
    for (unsigned k = 0; k < 8; ++k) {
      const __m512i srcv = (k & 1) ? hi : lo;
      idx[k] = _mm512_and_si512(_mm512_srli_epi32(srcv, 8 * (k / 2)), low32);
    }
    __m512i p = _mm512_setzero_si512();
    for (unsigned b = 0; b < 4; ++b) {
      __m512i pb = _mm512_shuffle_epi8(tab[0][b], idx[0]);
      for (unsigned k = 1; k < 8; ++k) {
        pb = _mm512_xor_si512(pb, _mm512_shuffle_epi8(tab[k][b], idx[k]));
      }
      p = _mm512_xor_si512(p, _mm512_slli_epi32(pb, 8 * b));
    }
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_avx2_w32(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_avx2_w32(dst + i, src + i, bytes - i, tables);
    }
  }
}

}  // namespace

void mult_xor_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables) {
  run_w8<true>(dst, src, bytes, tables);
}
void mult_xor_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_w16<true>(dst, src, bytes, tables);
}
void mult_xor_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_w32<true>(dst, src, bytes, tables);
}
void mult_over_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const std::uint8_t* tables) {
  run_w8<false>(dst, src, bytes, tables);
}
void mult_over_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables) {
  run_w16<false>(dst, src, bytes, tables);
}
void mult_over_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables) {
  run_w32<false>(dst, src, bytes, tables);
}

void xor_avx512(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    storeu(dst + i, _mm512_xor_si512(loadu(dst + i), loadu(src + i)));
  }
  if (i < bytes) xor_avx2(dst + i, src + i, bytes - i);
}

}  // namespace ppm::gf::internal

#endif  // x86
