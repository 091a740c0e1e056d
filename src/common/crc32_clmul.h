// Internal: the PCLMULQDQ fold behind crc32() (crc32_clmul.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ppm::internal {

/// Advance the raw (pre-inverted) CRC-32 register `crc` over `bytes`
/// bytes at `data`; `bytes` is a multiple of 16 and at least 64. x86 only,
/// and only on CPUs with PCLMULQDQ and SSE4.1.
std::uint32_t crc32_fold_clmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t bytes);

}  // namespace ppm::internal
