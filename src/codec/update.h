// Incremental parity updates.
//
// Overwriting one data block must not re-encode the stripe: every parity
// block is a fixed linear function of the data blocks, so a data delta
// d_new ^ d_old propagates to parity p as g_{p,d} * delta. The planner
// derives the generator coefficients g from the parity-check matrix once
// (by solving the encoding system) and then applies updates with one
// mult_XOR per affected parity — the small-write path of an erasure-coded
// store.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/erasure_code.h"
#include "matrix/matrix.h"

namespace ppm {

class UpdatePlanner {
 public:
  /// Derives the generator coefficients from the code's parity-check
  /// matrix. Throws std::invalid_argument if the code's encoding system is
  /// unsolvable (never, for the codes in this library).
  explicit UpdatePlanner(const ErasureCode& code);

  /// Parity blocks affected by a write to `data_block`, i.e. those with a
  /// nonzero generator coefficient (for LRC: the local parity of the
  /// block's group plus every global parity).
  std::vector<std::size_t> affected_parities(std::size_t data_block) const;

  /// Generator coefficient g such that parity ^= g * delta(data_block).
  gf::Element coefficient(std::size_t parity_block,
                          std::size_t data_block) const;

  /// Apply a write: `new_data` replaces block `data_block` (whose current
  /// contents must still be in `blocks[data_block]`). Updates the data
  /// block and every affected parity region in place. Returns the number
  /// of mult_XOR region ops performed. Throws std::invalid_argument, with
  /// no block touched, when `block_bytes` is not a multiple of the
  /// field's symbol size.
  std::size_t apply_write(std::size_t data_block,
                          const std::uint8_t* new_data,
                          std::uint8_t* const* blocks,
                          std::size_t block_bytes) const;

  const ErasureCode& code() const { return *code_; }

 private:
  const ErasureCode* code_;
  std::vector<std::size_t> data_ids_;    // data block ids (sorted)
  std::vector<std::size_t> parity_ids_;  // parity block ids (sorted)
  Matrix generator_;  // parity x data generator coefficients
};

}  // namespace ppm
