// Block-level (region-split) parallel decoding — the classic alternative
// the paper's related work contrasts PPM against ([36]-[38]): keep the
// whole-matrix decode of §II-B but split every block region into T
// contiguous slices and run the complete plan on each slice concurrently.
// Region operations are element-wise, so slices are independent.
//
// Strengths/weaknesses vs PPM (measured in bench/ablation_region_split):
// region splitting parallelizes *all* the work including H_rest's serial
// tail, but executes the full C1/C2 operation count — it has no partition
// and therefore no cost reduction; PPM runs fewer operations but owns a
// serial tail. The combination — PPM's partitioned plan executed on region
// slices — wins both ways and is what Codec ships (codec/codec.h); this
// decoder stays as the related-work baseline. plan_slices() is shared.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "codes/erasure_code.h"
#include "decode/scenario.h"
#include "decode/traditional_decoder.h"

namespace ppm {

/// One contiguous byte range of every block region, processed by one
/// worker. Produced by plan_slices(); consumed by this decoder, by Codec's
/// fan-out and by the hazard analyzer (analyze_hazard/), which proves the
/// ranges disjoint, symbol-aligned and an exact tiling of
/// [0, block_bytes).
struct SliceRange {
  std::size_t offset = 0;  ///< first byte of the slice
  std::size_t bytes = 0;   ///< slice length (multiple of the symbol size)
};

/// Split [0, block_bytes) into at most `threads` contiguous symbol-aligned
/// slices of near-equal size. Fewer slices are returned when there are not
/// enough symbols to go around; zero-length tails are never emitted.
/// `block_bytes` must be a multiple of `symbol_bytes`.
std::vector<SliceRange> plan_slices(std::size_t block_bytes,
                                    unsigned symbol_bytes, unsigned threads);

struct BlockParallelResult {
  DecodeStats stats;           ///< ops counted once (slices don't multiply C)
  Sequence sequence_used = Sequence::kMatrixFirst;
  unsigned slices = 1;
  double seconds = 0;          ///< measured wall time
  double plan_seconds = 0;
  std::vector<double> slice_seconds;  ///< per-slice execution time

  /// Modeled wall time with each slice on its own core: planning + the
  /// slowest slice (same single-core substitution as PpmResult).
  double modeled_seconds() const;
};

class BlockParallelDecoder {
 public:
  /// `threads` slices (0 = min(4, hardware), the same default as PPM).
  /// With `sequential` the slices execute one after another in the calling
  /// thread — the slice split and per-slice timings (and therefore
  /// modeled_seconds) are identical, but on a single-core host the
  /// measurements are not polluted by thread interleaving; benches use
  /// this the same way they use PPM at T=1.
  explicit BlockParallelDecoder(const ErasureCode& code, unsigned threads = 0,
                                SequencePolicy policy = SequencePolicy::kAuto,
                                bool sequential = false)
      : code_(&code),
        threads_(threads),
        policy_(policy),
        sequential_(sequential) {}

  std::optional<BlockParallelResult> decode(const FailureScenario& scenario,
                                            std::uint8_t* const* blocks,
                                            std::size_t block_bytes) const;

 private:
  const ErasureCode* code_;
  unsigned threads_;
  SequencePolicy policy_;
  bool sequential_;
};

}  // namespace ppm
