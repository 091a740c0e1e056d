// Resilient decode pipeline: options and report types (ppm).
//
// Codec::decode_resilient (declared in codec/codec.h, implemented in
// resilient.cpp) rebuilds the serving path on top of the fallible
// BlockSource abstraction (io/block_source.h). Its ladder, rung by rung:
//
//  1. RETRY      — every survivor read gets up to `max_read_retries`
//                  retries with exponential backoff, all bounded by one
//                  per-decode `deadline`;
//  2. ESCALATE   — a survivor whose reads fail permanently (or whose
//                  bytes fail the caller-supplied CRC) is promoted into
//                  the faulty set; the decode re-plans through the plan
//                  cache/store (warm hit) and restarts, up to the code's
//                  correction capability;
//  3. DEGRADE    — when the escalated scenario is undecodable, every
//                  independent sub-matrix (paper §III-A O1 group) whose
//                  survivors are all readable is still solved, yielding a
//                  partial per-block recovery report instead of
//                  all-or-nothing failure;
//  4. VERIFY     — recovered blocks are checked against expected CRC32
//                  digests when supplied; mismatches are reported as
//                  corruption instead of silently returned.
//
// docs/ROBUSTNESS.md documents the fault model and the exact semantics;
// `ppm_cli chaos` drives the pipeline through seeded fault campaigns.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

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
  /// degrades to whatever the already-fetched survivors support.
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

}  // namespace ppm
