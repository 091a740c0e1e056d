// CPU feature detection used to select Galois-field region kernels at runtime.
#pragma once

namespace ppm {

/// Instruction-set levels the GF region kernels are specialized for.
enum class IsaLevel {
  kScalar = 0,  ///< portable C++ nibble-table lookups, no vector intrinsics
  kSsse3 = 1,   ///< 128-bit pshufb nibble-table kernels
  kAvx2 = 2,    ///< 256-bit vpshufb nibble-table kernels
  kAvx512 = 3,  ///< 512-bit vpshufb nibble-table kernels (AVX-512BW)
  kGfni = 4,    ///< 512-bit GF2P8AFFINEQB kernels (GFNI + AVX-512BW) for
                ///< w = 8 and 16; w = 32 runs the AVX-512 kernel
};

/// Highest ISA level supported by the executing CPU.
///
/// Honours the environment variable `PPM_FORCE_ISA` (values: `scalar`,
/// `ssse3`, `avx2`, `avx512`, `gfni`) which caps the detected level; this
/// is how tests, CI and the Fig. 10 CPU-proxy benchmark pin a kernel
/// family. A cap above the CPU's level has no effect.
IsaLevel detect_isa();

/// Human-readable name for an ISA level.
const char* isa_name(IsaLevel level);

/// Number of hardware threads visible to this process (>= 1).
unsigned hardware_threads();

}  // namespace ppm
