// The traditional parity-check decoder (paper §II-B): the serial,
// whole-matrix baseline that PPM is measured against. It treats all faulty
// blocks as a unit: F ← faulty columns of H, S ← the rest, BF = F⁻¹·S·BS.
// A thin caller of CachedPlan::whole_matrix (decode/plan.h), timed.
#pragma once

#include <cstdint>
#include <optional>

#include "codes/erasure_code.h"
#include "decode/plan.h"
#include "decode/scenario.h"

namespace ppm {

struct TraditionalResult {
  DecodeStats stats;
  Sequence sequence_used = Sequence::kNormal;
  double seconds = 0;       ///< full decode wall time (planning + regions)
  double plan_seconds = 0;  ///< matrix work: F/S split, inversion, products
};

class TraditionalDecoder {
 public:
  explicit TraditionalDecoder(const ErasureCode& code) : code_(&code) {}

  /// Recover the scenario's faulty blocks in place. `blocks[id]` addresses
  /// block id's region of `block_bytes` bytes. Returns std::nullopt, with
  /// no block touched, when the scenario is undecodable or `block_bytes`
  /// is not a multiple of the field's symbol size.
  std::optional<TraditionalResult> decode(
      const FailureScenario& scenario, std::uint8_t* const* blocks,
      std::size_t block_bytes, SequencePolicy policy = SequencePolicy::kNormal)
      const;

  /// Encoding = decoding with all parity blocks unknown (§II-B).
  std::optional<TraditionalResult> encode(
      std::uint8_t* const* blocks, std::size_t block_bytes,
      SequencePolicy policy = SequencePolicy::kNormal) const;

 private:
  const ErasureCode* code_;
};

}  // namespace ppm
