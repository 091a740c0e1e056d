// PCLMULQDQ folding for CRC-32 (common/crc32.h).
//
// The byte table retires one byte per dependent lookup. Carry-less
// multiplication instead folds 64 bytes per step: four 128-bit
// accumulators each move 512 bits ahead by multiplying their two halves
// with x^(512±32) mod P, the four then fold into one 128-bit remainder,
// and a Barrett reduction brings that down to the 32-bit register (Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009). Every constant below is bit-reflected for
// P = 0xEDB88320, so the result is bit-identical to the table.
//
// This translation unit is compiled with -mpclmul -msse4.1; crc32.cpp only
// calls in when the CPU reports both.
#if defined(__x86_64__) || defined(__i386__)

#include "common/crc32_clmul.h"

#include <smmintrin.h>
#include <wmmintrin.h>

namespace ppm::internal {

namespace {

// (x^(512+32) mod P, x^(512-32) mod P): fold one accumulator 512 bits.
constexpr long long kFold512Lo = 0x154442bd4;
constexpr long long kFold512Hi = 0x1c6e41596;
// (x^(128+32) mod P, x^(128-32) mod P): fold 128 bits.
constexpr long long kFold128Lo = 0x1751997d0;
constexpr long long kFold128Hi = 0x0ccaa009e;
// x^64 mod P: 96 bits down to 64.
constexpr long long kFold64 = 0x163cd6124;
// Barrett reduction: P itself (with its x^32 term) and floor(x^64 / P).
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

/// acc.lo * k.lo + acc.hi * k.hi: `acc` moved ahead by the distance `k`
/// encodes.
__m128i fold(__m128i acc, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                       _mm_clmulepi64_si128(acc, k, 0x11));
}

__m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

std::uint32_t crc32_fold_clmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t bytes) {
  const std::uint8_t* end = data + bytes;
  __m128i a0 = _mm_xor_si128(load(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i a1 = load(data + 16);
  __m128i a2 = load(data + 32);
  __m128i a3 = load(data + 48);
  data += 64;

  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; end - data >= 64; data += 64) {
    a0 = _mm_xor_si128(fold(a0, k512), load(data));
    a1 = _mm_xor_si128(fold(a1, k512), load(data + 16));
    a2 = _mm_xor_si128(fold(a2, k512), load(data + 32));
    a3 = _mm_xor_si128(fold(a3, k512), load(data + 48));
  }

  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i acc = _mm_xor_si128(fold(a0, k128), a1);
  acc = _mm_xor_si128(fold(acc, k128), a2);
  acc = _mm_xor_si128(fold(acc, k128), a3);
  for (; data < end; data += 16) {
    acc = _mm_xor_si128(fold(acc, k128), load(data));
  }

  // 128 -> 96 bits: the low half times x^(128-32) onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k128, 0x10));
  // 96 -> 64 bits: the low 32 bits times x^64.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                                           _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, remainder = acc + q * P.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}

}  // namespace ppm::internal

#endif  // x86
