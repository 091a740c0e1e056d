// The recovery ladder: options, report and fetch-stage types (ppm).
//
// Codec::decode_ladder (resilient.cpp) decodes over fallible reads
// (io/block_source.h). Its rungs:
//
//  1. RETRY      — every survivor read gets up to `max_read_retries`
//                  retries, all bounded by one per-decode `deadline`;
//  2. ESCALATE   — a survivor whose reads fail permanently (or whose
//                  bytes fail the caller-supplied CRC) is promoted into
//                  the faulty set and the round re-plans through the plan
//                  cache/store, keeping every survivor that landed, up to
//                  the code's correction capability;
//  3. DEGRADE    — when the escalated scenario is undecodable, every
//                  independent sub-matrix (paper §III-A O1 group) whose
//                  survivors are all readable is still solved, yielding a
//                  partial per-block recovery report;
//  4. VERIFY     — recovered blocks are checked against expected CRC32
//                  digests when supplied; mismatches are reported as
//                  corruption instead of silently returned.
//
// Each round solves an O1 group as soon as its hazard::plan_readiness
// inputs are in, then H_rest. Codec::decode_resilient runs the ladder
// with a serial FetchStage, serve::decode_overlapped with a hedged one.
// docs/ROBUSTNESS.md documents the fault model and the exact semantics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/timer.h"
#include "decode/plan.h"
#include "decode/scenario.h"

namespace ppm {

class Rng;

/// Knobs of the resilient decode ladder. Defaults are test-friendly
/// (microsecond backoff); serving deployments tune them to the medium.
struct ResilienceOptions {
  /// Retries per survivor read beyond the first attempt.
  std::size_t max_read_retries = 3;

  /// Backoff before retry k (k = 0 for the first retry) is
  /// initial_backoff * backoff_multiplier^k, capped at max_backoff.
  std::chrono::nanoseconds initial_backoff{1000};
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff{1000000};

  /// Jitter fraction in [0, 1]: each backoff sleep is drawn uniformly
  /// from [(1 - jitter) * base, base], decorrelating the retry storms of
  /// decodes that hit the same failed device in lockstep. 0 (default)
  /// reproduces the exact exponential schedule.
  double backoff_jitter = 0.0;

  /// Seed for the jitter stream. 0 (default) gives every decode its own
  /// stream (a process-global counter), which is what production wants;
  /// tests pin a nonzero seed to make the jittered schedule replayable.
  std::uint64_t jitter_seed = 0;

  /// Wall-clock budget for the whole decode (reads + retries + solves);
  /// zero means no deadline. Once exceeded, no further source reads or
  /// backoff sleeps are issued: pending fetches fail fast and the decode
  /// degrades to whatever the already-fetched survivors support, and
  /// reports every group it solved from them as recovered.
  std::chrono::nanoseconds deadline{0};

  /// Cap on survivor-to-faulty promotions per decode. The code's
  /// correction capability bounds useful escalations anyway; lower this
  /// only to pin specific ladder behavior in tests.
  std::size_t max_escalations = static_cast<std::size_t>(-1);
};

/// Backoff before retry `retry_index` (0-based) under `options`:
/// initial_backoff * multiplier^retry_index, saturated at max_backoff.
/// Pure — unit-testable without a clock.
std::chrono::nanoseconds backoff_delay(const ResilienceOptions& options,
                                       std::size_t retry_index);

/// Jittered overload: the exponential backoff for `retry_index`, scaled
/// by a uniform draw from `rng` into [(1 - backoff_jitter) * base, base].
/// With backoff_jitter == 0 no draw is consumed and the result equals the
/// base form exactly. Deterministic for a given rng state — seed it to
/// replay a schedule. The pipeline composes this with the deadline clamp
/// (jitter first, then min with the remaining budget), so a near-expired
/// deadline still can never oversleep.
std::chrono::nanoseconds backoff_delay(const ResilienceOptions& options,
                                       std::size_t retry_index, Rng& rng);

/// Final, mutually exclusive per-block outcome of a resilient decode.
enum class RecoveryOutcome {
  kIntact,              ///< survivor; read fine (or never needed)
  kRecovered,           ///< decoded, and byte-verified when digests given
  kCorruptionDetected,  ///< decoded but failed the expected-CRC check
  kSourceFailed,        ///< reads failed permanently; never recovered
  kUnrecoverable,       ///< faulty and beyond the achievable recovery
};

/// Report of one resilient decode. The four block lists are disjoint and
/// sorted; a block appears in at most one (outcome_of() folds them).
struct ResilientResult {
  bool complete = false;  ///< every faulty block recovered and clean
  bool partial = false;   ///< some, but not all, recovered
  bool deadline_exceeded = false;
  bool degraded = false;  ///< the ladder closed; rung 3's partial solve ran

  std::size_t retries = 0;              ///< read retries issued
  std::size_t escalations = 0;          ///< survivors promoted to faulty
  std::size_t corruption_detected = 0;  ///< CRC mismatches (read + decode)

  std::vector<std::size_t> recovered;      ///< decoded, digest-clean
  std::vector<std::size_t> corrupted;      ///< decoded, digest mismatch
  std::vector<std::size_t> source_failed;  ///< unreadable, not recovered
  std::vector<std::size_t> unrecoverable;  ///< lost beyond recovery

  /// The faulty set the final (full or partial) solve ran against:
  /// the input scenario plus every escalated survivor.
  FailureScenario final_scenario;

  DecodeStats stats;  ///< region-op volume of executed sub-plans

  /// Fold the lists into one outcome for `block`.
  RecoveryOutcome outcome_of(std::size_t block) const;
};

/// Stage timestamps of one group's solve, in nanoseconds on the fetch
/// stage's clock. -1 = never reached.
struct GroupTiming {
  std::int64_t inputs_ready_ns = -1;
  std::int64_t solve_start_ns = -1;
  std::int64_t solve_end_ns = -1;
};

/// How the ladder's survivors reach the caller's blocks: the ladder plans,
/// solves and decides; a stage reads, retries and digest-checks. A stage
/// serves one decode, and a block lands at most once in it.
class FetchStage {
 public:
  /// Called in the fetching thread for each block that lands.
  using Landed = std::function<void(std::size_t block)>;

  FetchStage(std::uint8_t* const* blocks, std::size_t block_bytes,
             const ResilienceOptions& options,
             std::span<const std::uint32_t> expected_crc, const Timer& clock)
      : blocks(blocks),
        block_bytes(block_bytes),
        options(options),
        expected_crc(expected_crc),
        clock(clock) {}
  virtual ~FetchStage() = default;
  FetchStage(const FetchStage&) = delete;
  FetchStage& operator=(const FetchStage&) = delete;

  /// A round begins; `inputs` are its survivor reads, ascending. The
  /// serial stage reads nothing ahead.
  virtual void prefetch(std::span<const std::size_t> /*inputs*/) {}

  /// Wait until `block` is in the caller's buffer (true) or given up on
  /// (false: retries exhausted, digest mismatches or deadline), calling
  /// `landed` for every block that lands meanwhile, `block` included. The
  /// ladder asks only for blocks that have neither landed nor failed, in
  /// plan order: each O1 group's inputs in group order, then H_rest's,
  /// each ascending and each block once.
  virtual bool fetch(std::size_t block, const Landed& landed) = 0;

  /// Whether a hazard-free plan's groups may solve on ThreadPool::shared().
  virtual bool parallel_solves() const { return false; }

  /// The final round ran a full plan: its group timings, and H_rest's
  /// start (-1: the plan has none).
  virtual void solved(std::span<const GroupTiming> /*groups*/,
                      std::int64_t /*rest_start_ns*/) {}

  /// True once the per-decode deadline (if any) has elapsed.
  bool deadline_passed() const {
    return options.deadline.count() > 0 &&
           clock.nanos() >= options.deadline.count();
  }

  /// True when `bytes`, read for `block`, match its digest (or no digests
  /// were given); a mismatch is counted in corruption_detected.
  bool verified(std::size_t block, const std::uint8_t* bytes);

  std::uint8_t* const* const blocks;
  const std::size_t block_bytes;
  const ResilienceOptions options;
  /// The ladder drops a span that does not hold one CRC per block of the
  /// stripe before the first read: digests are all-or-nothing.
  std::span<const std::uint32_t> expected_crc;
  const Timer& clock;  ///< started with the decode

  // Tallies the ladder folds into its report.
  std::size_t retries = 0;
  std::size_t corruption_detected = 0;
  bool deadline_exceeded = false;
};

}  // namespace ppm
