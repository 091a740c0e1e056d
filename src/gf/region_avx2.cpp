// AVX2 region kernels: the SSSE3 nibble-table algorithm widened to 256 bits.
// vpshufb shuffles within each 128-bit lane, so the 16-entry tables are
// simply broadcast to both lanes and the SSSE3 index math carries over
// unchanged.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// The 16-entry table for nibble position k, symbol byte b, in every
// 128-bit lane.
template <unsigned W>
inline __m256i table(const std::uint8_t* tables, unsigned k, unsigned b) {
  const std::uint8_t* t = tables + nibble_offset<W>(k, b);
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

inline __m256i loadu(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void storeu(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

template <bool Xor>
inline void emit(std::uint8_t* dst, __m256i product) {
  if constexpr (Xor) {
    storeu(dst, _mm256_xor_si256(product, loadu(dst)));
  } else {
    storeu(dst, product);
  }
}

template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const std::uint8_t* tables) {
  const __m256i tlo = table<8>(tables, 0, 0);
  const __m256i thi = table<8>(tables, 1, 0);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i v = loadu(src + i);
    const __m256i lo = _mm256_and_si256(v, mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                                       _mm256_shuffle_epi8(thi, hi));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_ssse3_w8(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_ssse3_w8(dst + i, src + i, bytes - i, tables);
    }
  }
}

template <bool Xor>
void run_w16(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const std::uint8_t* tables) {
  __m256i lo_tab[4];
  __m256i hi_tab[4];
  for (unsigned k = 0; k < 4; ++k) {
    lo_tab[k] = table<16>(tables, k, 0);
    hi_tab[k] = table<16>(tables, k, 1);
  }
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i even = _mm256_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i v = loadu(src + i);
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), nib);
    const __m256i n0 = _mm256_and_si256(lo, even);
    const __m256i n1 = _mm256_and_si256(hi, even);
    const __m256i n2 = _mm256_srli_epi16(lo, 8);
    const __m256i n3 = _mm256_srli_epi16(hi, 8);
    __m256i pl = _mm256_shuffle_epi8(lo_tab[0], n0);
    pl = _mm256_xor_si256(pl, _mm256_shuffle_epi8(lo_tab[1], n1));
    pl = _mm256_xor_si256(pl, _mm256_shuffle_epi8(lo_tab[2], n2));
    pl = _mm256_xor_si256(pl, _mm256_shuffle_epi8(lo_tab[3], n3));
    __m256i ph = _mm256_shuffle_epi8(hi_tab[0], n0);
    ph = _mm256_xor_si256(ph, _mm256_shuffle_epi8(hi_tab[1], n1));
    ph = _mm256_xor_si256(ph, _mm256_shuffle_epi8(hi_tab[2], n2));
    ph = _mm256_xor_si256(ph, _mm256_shuffle_epi8(hi_tab[3], n3));
    const __m256i p = _mm256_xor_si256(pl, _mm256_slli_epi16(ph, 8));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_ssse3_w16(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_ssse3_w16(dst + i, src + i, bytes - i, tables);
    }
  }
}

template <bool Xor>
void run_w32(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const std::uint8_t* tables) {
  __m256i tab[8][4];
  for (unsigned k = 0; k < 8; ++k) {
    for (unsigned b = 0; b < 4; ++b) tab[k][b] = table<32>(tables, k, b);
  }
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i low32 = _mm256_set1_epi32(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i v = loadu(src + i);
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), nib);
    __m256i idx[8];
    for (unsigned k = 0; k < 8; ++k) {
      const __m256i srcv = (k & 1) ? hi : lo;
      idx[k] = _mm256_and_si256(
          _mm256_srli_epi32(srcv, static_cast<int>(8 * (k / 2))), low32);
    }
    __m256i p = _mm256_setzero_si256();
    for (unsigned b = 0; b < 4; ++b) {
      __m256i pb = _mm256_shuffle_epi8(tab[0][b], idx[0]);
      for (unsigned k = 1; k < 8; ++k) {
        pb = _mm256_xor_si256(pb, _mm256_shuffle_epi8(tab[k][b], idx[k]));
      }
      p = _mm256_xor_si256(p,
                           _mm256_slli_epi32(pb, static_cast<int>(8 * b)));
    }
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_ssse3_w32(dst + i, src + i, bytes - i, tables);
    } else {
      mult_over_ssse3_w32(dst + i, src + i, bytes - i, tables);
    }
  }
}

}  // namespace

void mult_xor_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t bytes, const std::uint8_t* tables) {
  run_w8<true>(dst, src, bytes, tables);
}
void mult_xor_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables) {
  run_w16<true>(dst, src, bytes, tables);
}
void mult_xor_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables) {
  run_w32<true>(dst, src, bytes, tables);
}
void mult_over_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const std::uint8_t* tables) {
  run_w8<false>(dst, src, bytes, tables);
}
void mult_over_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables) {
  run_w16<false>(dst, src, bytes, tables);
}
void mult_over_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const std::uint8_t* tables) {
  run_w32<false>(dst, src, bytes, tables);
}

void xor_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    storeu(dst + i, _mm256_xor_si256(loadu(dst + i), loadu(src + i)));
  }
  if (i < bytes) xor_sse2(dst + i, src + i, bytes - i);
}

}  // namespace ppm::gf::internal

#endif  // x86
