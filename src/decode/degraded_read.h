// Degraded reads: recover exactly one unavailable block at minimum cost.
//
// When an upper-layer read hits an unavailable block (the 90%-transient
// failure class motivating LRC, paper §I/§II-A), the system does not need a
// full-stripe decode — it needs that one block, from as few survivors as
// possible. The reader enumerates every check-row combination that can
// express the target block in terms of available blocks and picks the one
// with the fewest region operations; for an LRC data strip that is its
// local group, for an SD sector its row parity.
#pragma once

#include <cstdint>
#include <optional>

#include "codes/erasure_code.h"
#include "decode/plan.h"
#include "decode/scenario.h"

namespace ppm {

struct DegradedReadPlan {
  SubPlan plan;            ///< recovers exactly the target block
  std::size_t cost;        ///< region operations (== survivors read)
  std::size_t survivors;   ///< distinct blocks read
};

/// Why a degraded read could not be planned. The two failure classes call
/// for different reactions: kTargetNotUnavailable is a caller bug (or a
/// race with recovery — the block is readable, just read it), while
/// kInsufficientSurvivors means this unavailable set genuinely cannot
/// express the target and the caller should fall back to a full decode or
/// report data loss.
enum class DegradedReadError {
  kNone,                   ///< planned successfully
  kTargetNotUnavailable,   ///< `unavailable` does not contain the target
  kInsufficientSurvivors,  ///< no row combination avoids unavailable blocks
  kBlockSplitsSymbol,      ///< read(): block_bytes not a whole symbol count
};

class DegradedReader {
 public:
  explicit DegradedReader(const ErasureCode& code) : code_(&code) {}

  /// Plan the cheapest recovery of `target` when every block listed in
  /// `unavailable` (which must include `target`) cannot be read.
  /// std::nullopt when the target is not recoverable without touching
  /// other unavailable blocks... in which case callers fall back to a full
  /// PPM decode of the whole unavailable set. `error`, when non-null,
  /// receives the failure class (kNone on success).
  std::optional<DegradedReadPlan> plan(std::size_t target,
                                       const FailureScenario& unavailable,
                                       DegradedReadError* error = nullptr)
      const;

  /// Plan + execute in one call; true on success (target block rewritten).
  /// False, with no block touched, when planning fails or `block_bytes`
  /// is not a multiple of the field's symbol size.
  bool read(std::size_t target, const FailureScenario& unavailable,
            std::uint8_t* const* blocks, std::size_t block_bytes,
            DecodeStats* stats = nullptr,
            DegradedReadError* error = nullptr) const;

 private:
  const ErasureCode* code_;
};

}  // namespace ppm
