// Fetch/compute-overlapped decode with hedged reads (ppm::serve).
//
// PPM's partition proves the p independent O1 groups mutually
// race-free, and hazard::plan_readiness derives exactly which source
// blocks each group needs. decode_overlapped() exploits both: every
// survivor read is submitted concurrently through an AsyncBlockSource,
// and each group's solve is dispatched the moment the last of its inputs
// lands — long before the stripe's slowest read completes. The rest-rows
// solve (which may read group-recovered blocks) stays gated on every
// group finishing and on full survivor arrival, matching the plan's
// hazard-DAG edges.
//
// Straggler mitigation is hedging, not just deadlines: once an
// outstanding read's age exceeds the observed read-latency quantile (or
// a fraction of the decode deadline, whichever is sooner), a duplicate
// read is issued into its own scratch buffer. First clean completion
// wins and is copied into the caller's block exactly once; later
// completions of the same block are discarded (counted as wasted).
// Per-attempt scratch buffers are what make the race benign — no two
// in-flight attempts ever share a destination.
//
// The fast path never sleeps and never retries with backoff; a read that
// fails (or fails its CRC) is resubmitted immediately up to the
// resilience retry budget. Anything the fast path cannot finish —
// unplannable scenario, exhausted retries, deadline, corrupt recovery —
// falls back to the serial Codec::decode_resilient ladder (RETRY →
// ESCALATE → DEGRADE → VERIFY) on the same source with the remaining
// deadline, so the overlap layer adds latency upside without weakening
// PR 5's recovery semantics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "codec/resilient.h"
#include "common/timer.h"
#include "serve/async_source.h"

namespace ppm {
class ThreadPool;
}

namespace ppm::serve {

/// When to duplicate an outstanding read. The hedge threshold is
/// max(min_hedge_delay, min(latency-quantile estimate, deadline_fraction
/// × deadline)); with no samples yet and no deadline there is no basis
/// and no hedge fires.
struct HedgePolicy {
  bool enabled = true;
  /// Hedge reads older than this quantile of observed read latency.
  double latency_quantile = 0.95;
  /// Completed reads needed before the quantile estimate is trusted.
  std::size_t min_samples = 4;
  /// Hedge reads older than this fraction of the decode deadline.
  double deadline_fraction = 0.25;
  /// Floor under both signals — never hedge faster than this.
  std::chrono::nanoseconds min_hedge_delay{50'000};
  /// Duplicate-read cap per block per decode.
  std::size_t max_hedges_per_read = 2;
};

struct OverlapOptions {
  HedgePolicy hedge;
  /// Retry budget, deadline and (for the fallback ladder) backoff.
  ResilienceOptions resilience;
  /// Reactor threads per decode: a standalone decode_overlapped builds a
  /// private Reactor of this many (a caller-supplied AsyncBlockSource
  /// wins); a DecodeServer's shared one has dispatchers × this many.
  unsigned reactor_threads = 4;
  /// Solver pool for the group fan-out; nullptr = ThreadPool::shared().
  /// Used only when the plan's profile is hazard_free with >= 2 groups —
  /// otherwise group solves run in the event-loop thread (still
  /// overlapping fetch, just not each other).
  ThreadPool* pool = nullptr;
  /// Event-loop poll granularity (also bounds hedge-check latency).
  std::chrono::nanoseconds poll_interval{200'000};
};

/// Stage timestamps of one group's solve, in nanoseconds since the
/// decode started. -1 = never reached.
struct GroupTiming {
  std::int64_t inputs_ready_ns = -1;
  std::int64_t solve_start_ns = -1;
  std::int64_t solve_end_ns = -1;
};

struct OverlapResult {
  bool complete = false;  ///< all faulty blocks recovered (and CRC-clean)
  /// Fast path abandoned; `resilient` holds the ladder's full report.
  bool fallback = false;
  ResilientResult resilient;

  /// True when at least one group solve started before the last needed
  /// survivor read completed — the fetch/compute overlap actually
  /// happened (meaningless on the fallback path).
  bool overlapped = false;

  std::size_t hedges_launched = 0;
  std::size_t hedges_won = 0;     ///< hedge completions that arrived first
  std::size_t hedges_wasted = 0;  ///< duplicate completions discarded
  std::size_t reads_issued = 0;   ///< attempts submitted (primaries+hedges)
  std::size_t read_failures = 0;  ///< attempts failed or CRC-mismatched

  std::int64_t first_solve_start_ns = -1;
  std::int64_t last_read_complete_ns = -1;  ///< last needed input landed
  std::int64_t rest_solve_start_ns = -1;
  /// Wall time from the decode's start until every read it issued has
  /// finished. Abandoned attempts (hedge losers, reads the decode no
  /// longer needs) write into scratch buffers the decode owns, so it is
  /// not over until they land. A hedge win therefore shows up as an early
  /// last_read_complete_ns / rest_solve_start_ns — the solves and
  /// verification overlap the straggler's tail — while total_ns stays
  /// pinned to the slowest issued read. decode_overlapped waits for that
  /// tail before it returns; a DecodeServer hands the tail off and stamps
  /// total_ns when it drains, so its dispatcher moves on meanwhile.
  std::int64_t total_ns = 0;
  std::vector<GroupTiming> groups;

  DecodeStats stats;
};

/// Decode one stripe with concurrent, hedged survivor fetch and
/// readiness-overlapped group solves. `source` is the fallback ladder's
/// (and, when `async` is null, a private reactor's) read path; `async`,
/// when given, must wrap the same underlying data. `blocks`/`block_bytes`
/// and `expected_crc` follow Codec::decode_resilient's contract, which
/// includes refusing a `block_bytes` that splits a symbol before any read.
/// Returns only after every read it issued has finished.
OverlapResult decode_overlapped(Codec& codec, const FailureScenario& scenario,
                                io::BlockSource& source,
                                std::uint8_t* const* blocks,
                                std::size_t block_bytes,
                                const OverlapOptions& options = {},
                                std::span<const std::uint32_t> expected_crc = {},
                                AsyncBlockSource* async = nullptr);

/// What a served decode leaves behind when it returns: the reads it no
/// longer needs (hedge losers, stragglers a hedge beat), still in flight
/// on their session and writing into the scratch buffers held here.
struct OverlapTail {
  Timer clock;  ///< started with the decode; total_ns reads it at drain
  std::vector<std::vector<std::uint8_t>> scratch;
  std::unique_ptr<ThreadedAsyncSource> session;  ///< last: destroyed first
};

/// The served form of decode_overlapped: reads run on a new session of
/// `reactor`, which `tail` receives. Returns as soon as the faulty blocks
/// are recovered and CRC-verified (or the fallback ladder has finished),
/// with the attempts it no longer needs still in flight. `blocks` are
/// final then, but `source` must stay valid, and `tail` must be kept,
/// until the session drains (ThreadedAsyncSource::detach); total_ns is
/// the caller's to stamp at that point.
OverlapResult decode_overlapped(Codec& codec, const FailureScenario& scenario,
                                io::BlockSource& source,
                                std::uint8_t* const* blocks,
                                std::size_t block_bytes,
                                const OverlapOptions& options,
                                std::span<const std::uint32_t> expected_crc,
                                Reactor& reactor, OverlapTail& tail);

}  // namespace ppm::serve
