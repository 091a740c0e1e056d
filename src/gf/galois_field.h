// Galois-field arithmetic over GF(2^w), w ∈ {8, 16, 32}.
//
// This is the substrate every erasure code in the library sits on. Scalar
// element arithmetic (used by the tiny matrix computations of the decode
// planner) lives behind the virtual interface; the performance-critical
// region primitive mult_XOR — multiply a block region by a constant and
// XOR-accumulate into a destination region, exactly the paper's
// mult_XORs(d0, d1, a) — is dispatched to scalar / SSSE3 / AVX2 / AVX-512
// nibble-table kernels or GFNI affine kernels selected at startup (see
// common/cpu.h). Every family reads the constant as tables Field::prepare
// builds once per coefficient (SubPlan keeps one set per matrix nonzero),
// so a region call carries no per-call setup.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace ppm::gf {

/// A field element. Only the low w bits are meaningful.
using Element = std::uint32_t;

/// Bytes of one constant's prepared tables at width w (Field::prepare),
/// whole 64-byte lines so that tables can be stored back to back.
constexpr std::size_t operand_bytes(unsigned w) {
  return w == 8 ? 64 : w == 16 ? 192 : 512;
}

/// Region-kernel function: dst ^= c * src (XOR variant) or dst = c * src,
/// applied symbol-wise over `bytes` bytes (a multiple of the symbol size),
/// with c given by its prepared tables (Field::prepare).
using RegionFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const std::uint8_t* tables);

/// XOR-only region function: dst ^= src over `bytes` bytes.
using XorFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes);

/// Kernel bundle for one (field width, ISA level) pair. The kGfni level
/// has GF2P8AFFINEQB kernels for w = 8 and 16 and the AVX-512 ones at
/// w = 32.
struct RegionKernels {
  RegionFn mult_xor = nullptr;   ///< dst ^= c * src
  RegionFn mult_over = nullptr;  ///< dst  = c * src
  XorFn xor_region = nullptr;    ///< dst ^= src (the c == 1 fast path)
};

/// Return the kernel bundle for width `w` at ISA `level` (always non-null
/// members; lower levels are substituted when the requested one does not
/// exist). Exposed so tests can cross-check every kernel family and so the
/// Fig. 10 CPU-proxy bench can pin one.
const RegionKernels& kernels_for(unsigned w, IsaLevel level);

/// Abstract field. Instances are process-lifetime singletons from field().
class Field {
 public:
  virtual ~Field() = default;

  /// Symbol width in bits (8, 16 or 32).
  virtual unsigned w() const = 0;

  /// Symbol width in bytes.
  unsigned symbol_bytes() const { return w() / 8; }

  /// Largest element value (all-ones mask of width w).
  Element max_element() const {
    return w() == 32 ? ~Element{0} : ((Element{1} << w()) - 1);
  }

  /// Field multiplication.
  virtual Element mul(Element a, Element b) const = 0;

  /// Multiplicative inverse; precondition a != 0.
  virtual Element inv(Element a) const = 0;

  /// alpha^e where alpha = 2 is a primitive element of the chosen
  /// polynomial. Exponents are reduced mod (2^w - 1). Used by the code
  /// constructions (coefficients of the form a_q^l).
  virtual Element exp2(std::uint64_t e) const = 0;

  /// Addition is XOR in characteristic 2.
  static Element add(Element a, Element b) { return a ^ b; }

  /// a / b; precondition b != 0.
  Element div(Element a, Element b) const { return mul(a, inv(b)); }

  /// a^e by square-and-multiply (a may be any element).
  Element pow(Element a, std::uint64_t e) const;

  /// Write c's region-kernel tables, operand_bytes(w()) bytes, into
  /// `tables`, in the manner of ISA-L's prebuilt g_tbls: every kernel
  /// family reads them and derives nothing from c per call. Built from
  /// the column images c·2^j by doubling; laid out, for the B = w/8
  /// symbol bytes, as
  ///   * bytes [0, w·w/2): the byte-sliced nibble tables of the scalar,
  ///     SSSE3, AVX2 and AVX-512 kernels — byte 16·(k·B + b) + v is byte
  ///     b of c·(v << 4k), for the w/4 nibble positions k;
  ///   * then, for w ≤ 16, the GF2P8AFFINEQB 8×8 bit matrices of the
  ///     GFNI kernels, one qword each (byte 7 - i holds the input bits
  ///     feeding output bit i): one at w = 8; at w = 16, with L and H the
  ///     low and high symbol bytes, {L→L, H→H, L→H, H→L}.
  void prepare(Element c, std::uint8_t* tables) const;

  /// Every constant's prepared tables, operand_bytes(w()) apart and
  /// indexed by the constant, when the field is small enough to keep them
  /// all (w = 8: 16 KiB, built on first use); nullptr otherwise. Plans
  /// over such a field point into it instead of holding their own.
  const std::uint8_t* all_tables() const;

  /// The paper's mult_XORs(d0=src, d1=dst, a=c): dst ^= c * src over a
  /// region of `bytes` bytes. Fast paths: c == 0 is a no-op, c == 1 is a
  /// pure XOR. Throws std::invalid_argument, touching nothing, when
  /// `bytes` is not a multiple of symbol_bytes(). Prepares c's tables on
  /// the stack; SubPlan, which reuses each constant, prepares them once
  /// and calls the kernels directly.
  void mult_region_xor(std::uint8_t* dst, const std::uint8_t* src, Element c,
                       std::size_t bytes) const;

  /// dst = c * src over a region (overwrite variant used when a target
  /// block is first touched, avoiding a pre-zeroing pass). Same size
  /// check as mult_region_xor.
  void mult_region(std::uint8_t* dst, const std::uint8_t* src, Element c,
                   std::size_t bytes) const;

  /// Run mult_region_xor with an explicitly pinned kernel family (tests and
  /// the Fig. 10 bench); semantics identical to mult_region_xor.
  void mult_region_xor_isa(std::uint8_t* dst, const std::uint8_t* src,
                           Element c, std::size_t bytes, IsaLevel level) const;

 private:
  void check_region(std::size_t bytes) const;
};

/// Singleton field for width w ∈ {8, 16, 32}; throws std::invalid_argument
/// for any other width.
const Field& field(unsigned w);

/// dst ^= src over `bytes` bytes using the best available kernel.
void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

}  // namespace ppm::gf
