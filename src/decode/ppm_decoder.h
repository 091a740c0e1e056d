// The PPM decoder (paper §III, Algorithm 1): partition the parity-check
// matrix via the log table, recover independent faulty blocks on T
// parallel threads with the matrix-first sequence, then recover the
// dependent blocks from the remaining sub-matrix with the cost-cheaper
// sequence. It plans with CachedPlan::partitioned (decode/plan.h) and
// runs the groups on T ephemeral threads per decode — the paper's
// execution model, whose thread-start cost is part of what Fig. 9
// measures against stripe size. The figure benches time it as the
// paper's algorithm, beside Codec's sliced executor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "codes/erasure_code.h"
#include "decode/scenario.h"
#include "decode/traditional_decoder.h"

namespace ppm {

struct PpmOptions {
  /// Worker threads T for the independent sub-matrices. 0 selects the
  /// paper's default min(4, hardware cores); the effective count is further
  /// capped at p (T <= p, §III-C).
  unsigned threads = 0;

  /// Sequence for the remaining sub-matrix H_rest. kAuto compares the exact
  /// C3 vs C4 tail terms; kNormal reproduces the paper's Algorithm 1, which
  /// always uses the normal sequence for H_rest (i.e. C4).
  SequencePolicy rest_policy = SequencePolicy::kAuto;
};

struct PpmResult {
  DecodeStats stats;
  std::size_t p = 0;                 ///< independent sub-matrices found
  std::size_t dependent_blocks = 0;  ///< faulty blocks left to H_rest
  /// Lanes that actually ran work: min(T, groups) on the parallel paths
  /// (never more threads than groups are spawned), 1 on the serial path.
  unsigned threads_used = 1;
  /// Lane each group ran on under the executed LPT placement (empty until
  /// a decode ran; all zeros on the serial path).
  std::vector<unsigned> lane_of;
  Sequence rest_sequence = Sequence::kNormal;

  bool rest_empty() const { return dependent_blocks == 0; }

  double seconds = 0;           ///< measured wall time of the whole decode
  double plan_seconds = 0;      ///< log table + partition + matrix planning
  double parallel_seconds = 0;  ///< wall time of the group phase
  double rest_seconds = 0;      ///< wall time of the H_rest phase
};

class PpmDecoder {
 public:
  explicit PpmDecoder(const ErasureCode& code, PpmOptions options = {})
      : code_(&code), options_(options) {}

  /// Recover the scenario's faulty blocks in place. std::nullopt, with no
  /// block touched, when the scenario is undecodable or `block_bytes` is
  /// not a multiple of the field's symbol size.
  std::optional<PpmResult> decode(const FailureScenario& scenario,
                                  std::uint8_t* const* blocks,
                                  std::size_t block_bytes) const;

  /// Encoding = decoding with all parity blocks unknown. For SD codes the
  /// per-row parity groups are independent, so encoding parallelizes the
  /// same way decoding does.
  std::optional<PpmResult> encode(std::uint8_t* const* blocks,
                                  std::size_t block_bytes) const;

  const PpmOptions& options() const { return options_; }

 private:
  const ErasureCode* code_;
  PpmOptions options_;
};

}  // namespace ppm
