// Fetch/compute-overlapped decode with hedged reads (ppm::serve).
//
// PPM's partition proves the p independent O1 groups mutually
// race-free, and hazard::plan_readiness derives exactly which source
// blocks each group needs. decode_overlapped() runs the codec's recovery
// ladder (Codec::decode_ladder, codec/resilient.h) with a hedged fetch
// stage: every survivor read of a round is submitted concurrently through
// a ThreadedAsyncSource, and the ladder dispatches each group's solve the
// moment the last of its inputs lands — long before the stripe's slowest
// read completes. The rest-rows solve (which may read group-recovered
// blocks) stays gated on every group finishing and on full survivor
// arrival, matching the plan's hazard-DAG edges.
//
// Straggler mitigation is hedging, not just deadlines: once an
// outstanding read's age exceeds the observed read-latency p95 (or a
// quarter of the decode deadline, whichever is sooner), a duplicate read
// is issued into its own scratch buffer. First clean completion
// wins and is copied into the caller's block exactly once; later
// completions of the same block are discarded (counted as wasted).
// Per-attempt scratch buffers are what make the race benign — no two
// in-flight attempts ever share a destination.
//
// A read that fails (or fails its CRC) is resubmitted at once, without
// backoff, within the 1 + max_read_retries attempts decode_resilient
// gives each survivor; a hedge is one of those attempts. A survivor that
// spends them is escalated in place, as decode_resilient escalates it:
// the round re-plans and keeps every read that landed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "codec/resilient.h"
#include "common/timer.h"
#include "serve/async_source.h"

namespace ppm::serve {

/// Whether to duplicate outstanding reads. The hedge threshold is
/// max(50 µs, min(observed read-latency p95, deadline / 4)), with the p95
/// trusted from the 4th completed read on; with no basis yet and no
/// deadline no hedge fires. A block is hedged at most twice per decode,
/// and only while it has attempts left in its retry budget.
/// Those constants live in overlap.cpp (docs/SERVING.md §2).
struct HedgePolicy {
  bool enabled = true;
};

struct OverlapOptions {
  HedgePolicy hedge;
  /// Retry budget and deadline; the hedged stage ignores the backoff.
  ResilienceOptions resilience;
  /// Reactor threads per decode: a standalone decode_overlapped builds a
  /// private Reactor of this many; a DecodeServer's shared one has
  /// dispatchers × this many.
  unsigned reactor_threads = 4;
};

/// Stage timestamps of one group's solve, in nanoseconds since the
/// decode started.
using ppm::GroupTiming;

struct OverlapResult {
  bool complete = false;  ///< resilient.complete
  /// The ladder escalated a survivor or degraded to partial recovery.
  bool fallback = false;
  ResilientResult resilient;  ///< the ladder's report

  /// True when at least one group solve started before the last needed
  /// survivor read completed — the fetch/compute overlap actually
  /// happened. Set, like first_solve_start_ns, only without a fallback.
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
  std::vector<GroupTiming> groups;  ///< the final full-plan round's solves
};

/// Decode one stripe with concurrent, hedged survivor fetch and
/// readiness-overlapped group solves. `source` is read only through a
/// private reactor. Group solves run on ThreadPool::shared() when the
/// plan's profile is hazard_free with >= 2 groups, otherwise in the
/// event-loop thread (still overlapping fetch, just not each other).
/// `blocks`/`block_bytes` and `expected_crc` follow
/// Codec::decode_resilient's contract, which includes ignoring a digest
/// span without one CRC per block and refusing a `block_bytes` that
/// splits a symbol before any read. Returns only after every read it
/// issued has finished.
OverlapResult decode_overlapped(
    Codec& codec, const FailureScenario& scenario, io::BlockSource& source,
    std::uint8_t* const* blocks, std::size_t block_bytes,
    const OverlapOptions& options = {},
    std::span<const std::uint32_t> expected_crc = {});

/// What a served decode leaves behind when it returns: the reads it no
/// longer needs (hedge losers, stragglers a hedge beat), still in flight
/// on their session and writing into the scratch buffers held here.
struct OverlapTail {
  Timer clock;  ///< started with the decode; total_ns reads it at drain
  std::vector<std::vector<std::uint8_t>> scratch;
  std::unique_ptr<ThreadedAsyncSource> session;  ///< last: destroyed first
};

/// The served form of decode_overlapped: reads run on a new session of
/// `reactor`, which `tail` receives. Returns as soon as the ladder has
/// finished — the faulty blocks recovered and CRC-verified, or classified
/// — with the attempts it no longer needs still in flight. `blocks` are
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
