// Runtime selection of region kernels by field width and ISA level.
#include <stdexcept>

#include "common/cpu.h"
#include "gf/galois_field.h"
#include "gf/region_kernels.h"

namespace ppm::gf {

namespace {

using namespace internal;

constexpr unsigned width_index(unsigned w) {
  return w == 8 ? 0 : w == 16 ? 1 : 2;
}

#if defined(__x86_64__) || defined(__i386__)
constexpr RegionKernels kTable[3][5] = {
    // w = 8
    {{mult_xor_scalar_w8, mult_over_scalar_w8, xor_scalar},
     {mult_xor_ssse3_w8, mult_over_ssse3_w8, xor_sse2},
     {mult_xor_avx2_w8, mult_over_avx2_w8, xor_avx2},
     {mult_xor_avx512_w8, mult_over_avx512_w8, xor_avx512},
     {mult_xor_gfni_w8, mult_over_gfni_w8, xor_avx512}},
    // w = 16
    {{mult_xor_scalar_w16, mult_over_scalar_w16, xor_scalar},
     {mult_xor_ssse3_w16, mult_over_ssse3_w16, xor_sse2},
     {mult_xor_avx2_w16, mult_over_avx2_w16, xor_avx2},
     {mult_xor_avx512_w16, mult_over_avx512_w16, xor_avx512},
     {mult_xor_gfni_w16, mult_over_gfni_w16, xor_avx512}},
    // w = 32: no GFNI kernel; the AVX-512 one serves that level
    {{mult_xor_scalar_w32, mult_over_scalar_w32, xor_scalar},
     {mult_xor_ssse3_w32, mult_over_ssse3_w32, xor_sse2},
     {mult_xor_avx2_w32, mult_over_avx2_w32, xor_avx2},
     {mult_xor_avx512_w32, mult_over_avx512_w32, xor_avx512},
     {mult_xor_avx512_w32, mult_over_avx512_w32, xor_avx512}},
};
#else
constexpr RegionKernels kScalarOnly[3] = {
    {mult_xor_scalar_w8, mult_over_scalar_w8, xor_scalar},
    {mult_xor_scalar_w16, mult_over_scalar_w16, xor_scalar},
    {mult_xor_scalar_w32, mult_over_scalar_w32, xor_scalar},
};
#endif

}  // namespace

const RegionKernels& kernels_for(unsigned w, IsaLevel level) {
  if (w != 8 && w != 16 && w != 32) {
    throw std::invalid_argument("unsupported GF width");
  }
#if defined(__x86_64__) || defined(__i386__)
  // Cap the request at what the CPU (and PPM_FORCE_ISA) allows.
  const IsaLevel avail = detect_isa();
  const IsaLevel use = level < avail ? level : avail;
  return kTable[width_index(w)][static_cast<int>(use)];
#else
  (void)level;
  return kScalarOnly[width_index(w)];
#endif
}

void xor_region(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes) {
  kernels_for(8, detect_isa()).xor_region(dst, src, bytes);
}

}  // namespace ppm::gf
