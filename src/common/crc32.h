// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320; zlib's crc32).
//
// The integrity check behind every sealed record (common/sealed_dir.h:
// plan store, certificate store, repair journal) and behind the block
// digests the resilient ladder, the serving layer and the scrubber verify
// survivor reads and recovered blocks against. Serving checks every
// survivor it fetches, so this sits on the request path: inputs of 64
// bytes or more are folded with PCLMULQDQ when the CPU has it (and
// PPM_FORCE_ISA is not `scalar`), the byte table covers the rest. Both
// paths give the same value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ppm {

/// CRC-32 of `bytes` bytes at `data`. Pass a previous result as `seed` to
/// chain incremental computation over discontiguous buffers; the empty
/// input maps to 0.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

}  // namespace ppm
