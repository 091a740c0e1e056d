// Field-independent plumbing: the registry, region-op entry points and
// the prepared-table construction shared by all widths.
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "gf/fields_internal.h"
#include "gf/galois_field.h"
#include "gf/region_kernels.h"

namespace ppm::gf {

Element Field::pow(Element a, std::uint64_t e) const {
  Element result = 1;
  Element base = a;
  while (e != 0) {
    if (e & 1) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

namespace {

using internal::affine_offset;
using internal::nibble_offset;

// Transpose an 8×8 bit matrix held one row per byte (bit c of byte r is
// entry (r, c)) by three delta swaps of its off-diagonal blocks.
std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

// GF2P8AFFINEQB matrix of the 8×8 block of multiplication by c that maps
// input bits in..in+7 to output bits out..out+7, given the column images
// col[j] = c·2^j. The instruction wants row i in byte 7 - i.
std::uint64_t affine_block(const Element* col, unsigned in, unsigned out) {
  std::uint64_t cols = 0;  // byte j = image of input bit j
  for (unsigned j = 0; j < 8; ++j) {
    cols |= static_cast<std::uint64_t>((col[in + j] >> out) & 0xFF) << (8 * j);
  }
  return __builtin_bswap64(transpose8x8(cols));
}

// The 16-entry table whose entry v is the XOR of e[i] over the set bits i
// of v, built as two qwords (entry v = byte v, little-endian): each e[i]
// is broadcast and masked to the entries whose bit i is set.
void nibble_table(const std::uint8_t (&e)[4], std::uint8_t* out) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  const std::uint64_t lo = ((e[0] * kOnes) & 0xFF00FF00FF00FF00ULL) ^
                           ((e[1] * kOnes) & 0xFFFF0000FFFF0000ULL) ^
                           ((e[2] * kOnes) & 0xFFFFFFFF00000000ULL);
  const std::uint64_t hi = lo ^ (e[3] * kOnes);
  std::memcpy(out, &lo, 8);
  std::memcpy(out + 8, &hi, 8);
}

template <unsigned W>
void prepare_tables(Element c, std::uint64_t poly, std::uint8_t* tables) {
  constexpr Element kTop = Element{1} << (W - 1);
  constexpr Element kMask = W == 32 ? ~Element{0} : (Element{1} << W) - 1;
  const auto reduce = static_cast<Element>(poly) & kMask;  // x^W mod p(x)
  // Column images c·2^j: multiplication by c is linear over GF(2), so
  // these determine every table and matrix below.
  Element col[W];
  col[0] = c;
  for (unsigned j = 1; j < W; ++j) {
    const Element prev = col[j - 1];
    col[j] = ((prev << 1) & kMask) ^ ((prev & kTop) != 0 ? reduce : 0);
  }
  for (unsigned k = 0; k < W / 4; ++k) {
    for (unsigned b = 0; b < W / 8; ++b) {
      std::uint8_t e[4];
      for (unsigned i = 0; i < 4; ++i) {
        e[i] = static_cast<std::uint8_t>(col[4 * k + i] >> (8 * b));
      }
      nibble_table(e, tables + nibble_offset<W>(k, b));
    }
  }
  if constexpr (W <= 16) {
    std::uint64_t affine[4] = {affine_block(col, 0, 0)};
    if constexpr (W == 16) {
      affine[1] = affine_block(col, 8, 8);  // H -> H
      affine[2] = affine_block(col, 0, 8);  // L -> H
      affine[3] = affine_block(col, 8, 0);  // H -> L
    }
    std::memcpy(tables + affine_offset<W>(), affine, W == 8 ? 8 : 32);
  }
}

}  // namespace

const std::uint8_t* Field::all_tables() const {
  if (w() != 8) return nullptr;
  static const std::vector<std::uint8_t> all = [] {
    std::vector<std::uint8_t> v(256 * operand_bytes(8));
    for (Element c = 0; c < 256; ++c) {
      prepare_tables<8>(c, internal::kPoly8, v.data() + c * operand_bytes(8));
    }
    return v;
  }();
  return all.data();
}

void Field::prepare(Element c, std::uint8_t* tables) const {
  switch (w()) {
    case 8:
      std::memcpy(tables, all_tables() + (c & 0xFF) * operand_bytes(8),
                  operand_bytes(8));
      return;
    case 16: prepare_tables<16>(c, internal::kPoly16, tables); return;
    default: prepare_tables<32>(c, internal::kPoly32, tables); return;
  }
}

void Field::check_region(std::size_t bytes) const {
  if (bytes % symbol_bytes() != 0) {
    throw std::invalid_argument("GF region of " + std::to_string(bytes) +
                                " bytes splits a " +
                                std::to_string(symbol_bytes()) +
                                "-byte symbol");
  }
}

void Field::mult_region_xor(std::uint8_t* dst, const std::uint8_t* src,
                            Element c, std::size_t bytes) const {
  mult_region_xor_isa(dst, src, c, bytes, detect_isa());
}

void Field::mult_region_xor_isa(std::uint8_t* dst, const std::uint8_t* src,
                                Element c, std::size_t bytes,
                                IsaLevel level) const {
  check_region(bytes);
  if (c == 0 || bytes == 0) return;
  const RegionKernels& k = kernels_for(w(), level);
  if (c == 1) {
    k.xor_region(dst, src, bytes);
    return;
  }
  alignas(64) std::uint8_t tables[operand_bytes(32)];
  prepare(c, tables);
  k.mult_xor(dst, src, bytes, tables);
}

void Field::mult_region(std::uint8_t* dst, const std::uint8_t* src, Element c,
                        std::size_t bytes) const {
  check_region(bytes);
  if (bytes == 0) return;
  if (c == 0) {
    std::memset(dst, 0, bytes);
    return;
  }
  if (c == 1) {
    std::memcpy(dst, src, bytes);
    return;
  }
  alignas(64) std::uint8_t tables[operand_bytes(32)];
  prepare(c, tables);
  kernels_for(w(), detect_isa()).mult_over(dst, src, bytes, tables);
}

const Field& field(unsigned w) {
  switch (w) {
    case 8: return internal::gf8_instance();
    case 16: return internal::gf16_instance();
    case 32: return internal::gf32_instance();
    default: throw std::invalid_argument("GF width must be 8, 16 or 32");
  }
}

}  // namespace ppm::gf
