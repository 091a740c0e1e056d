// Lightweight observability primitives for the codec's hot paths.
//
// Everything here is safe for concurrent writers and concurrent readers
// without external locking: counters are relaxed atomics (they count
// events, they do not order them) and the latency histogram is a fixed
// array of atomic buckets indexed by log2(nanoseconds). Recording costs
// one clock read plus one relaxed fetch_add — cheap enough to leave on in
// production serving paths.
//
// Readers (stats APIs, JSON export) observe each cell atomically but the
// set of cells is not snapshotted as a unit; totals read while writers
// are active are internally consistent per cell, approximate across
// cells. That is the usual metrics contract.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ppm {

/// Monotonic event counter. add()/value() are wait-free relaxed atomics.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Log2-bucketed latency histogram. Bucket i counts samples with
/// nanoseconds in [2^i, 2^(i+1)); 64 buckets cover every representable
/// duration. Quantiles are estimated by linear interpolation inside the
/// containing bucket, which is exact to within a factor-of-2 bucket width
/// — plenty for serving dashboards.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record_seconds(double seconds) {
    record_nanos(seconds <= 0
                     ? 0
                     : static_cast<std::uint64_t>(seconds * 1e9));
  }

  void record_nanos(std::uint64_t ns) {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_ns_.compare_exchange_weak(seen, ns,
                                          std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double total_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  double max_seconds() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  double mean_seconds() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
  }

  /// Estimated q-quantile (q in [0,1]) in seconds, from a point-in-time
  /// read of the buckets. 0 when empty.
  double quantile_seconds(double q) const;

  /// Lower edge (inclusive) of bucket i in nanoseconds.
  static std::uint64_t bucket_floor_ns(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << i;
  }
  /// Upper edge (exclusive) of bucket i in nanoseconds.
  static std::uint64_t bucket_ceil_ns(std::size_t i) {
    return i + 1 >= kBuckets ? ~std::uint64_t{0} : std::uint64_t{1} << (i + 1);
  }

  static std::size_t bucket_of(std::uint64_t ns) {
    return ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns) - 1);
  }

  void reset();

  /// Append `{"count":..,"mean_s":..,"p50_s":..,...,"buckets":[...]}` —
  /// only non-empty buckets are listed, as [floor_ns, count] pairs.
  void append_json(std::string& out) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// The codec's metric set: plan-cache traffic, decode volume, and
/// latency distributions. One instance per Codec (aggregate across codecs
/// in the application if desired); every member is individually
/// thread-safe, so the struct needs no lock.
struct CodecMetrics {
  // Plan cache.
  Counter plan_hits;        ///< plan_for served from cache
  Counter plan_misses;      ///< plan_for had to build
  Counter plan_evictions;   ///< cached plans discarded by LRU pressure
  Counter plan_failures;    ///< undecodable scenarios (build returned null)

  // Plan verification (populated in PPM_VERIFY_PLANS / Debug builds,
  // where every built plan runs through ppm::planverify before insertion).
  Counter plans_verified;        ///< plans proven sound before caching
  Counter plan_verify_failures;  ///< plans rejected by the verifier

  // Concurrency-hazard analysis (analyze_hazard/). Every built plan is
  // analyzed so it carries its PlanProfile; in PPM_VERIFY_PLANS builds a
  // hazardous plan additionally throws. The two accumulators divide into
  // the fleet-level parallelism picture: analyzed_work /
  // analyzed_critical_path is the average max-speedup bound over every
  // plan built.
  Counter plans_analyzed;         ///< plans profiled (and proven race-free)
  Counter hazard_failures;        ///< plans with a concurrency hazard
  Counter analyzed_work;          ///< Σ total mult_XOR work of analyzed plans
  Counter analyzed_critical_path; ///< Σ critical-path mult_XORs of same

  // Persistent plan store (plan_store/; populated once a store is
  // attached to the codec). Every load — read-through or warm — passed
  // the zero-trust gate (parse + planverify + hazard re-analysis);
  // load_failures counts records that did not, and quarantined counts the
  // files renamed aside as a result.
  Counter planstore_loads;          ///< plans served from disk, re-verified
  Counter planstore_load_failures;  ///< records failing parse or re-proof
  Counter planstore_stores;         ///< plans written through to disk
  Counter planstore_store_failures; ///< put() aborted by an I/O error
  Counter planstore_quarantined;    ///< records renamed aside as untrusted
  Counter planstore_warm_hits;      ///< warm() preloads entering the cache

  // Resilient decode pipeline (codec/resilient.cpp). Events, not blocks:
  // one decode that retries a block three times counts three retries, and
  // corruption_detected counts every CRC mismatch observed (a persistently
  // corrupt block re-checked across retries counts each check).
  Counter resilience_retries;             ///< survivor-read retries issued
  Counter resilience_escalations;         ///< survivors promoted to faulty
  Counter resilience_partial_decodes;     ///< decodes degraded to partial
  Counter resilience_deadline_exceeded;   ///< decodes that ran out of budget
  Counter resilience_corruption_detected; ///< expected-CRC mismatches

  // Decode volume.
  Counter decodes;          ///< single-stripe decode() calls
  Counter batches;          ///< decode_batch() calls
  Counter stripes_decoded;  ///< stripes across all batches + decodes
  Counter mult_xors;        ///< region ops issued (the paper's C, summed)
  Counter bytes_touched;    ///< source bytes read by region ops

  // Slice fan-out (docs/CONCURRENCY.md §5): stripes, single or batched,
  // whose plan ran as more than one slice on the codec pool.
  Counter stripes_sliced;

  // Latency.
  LatencyHistogram decode_seconds;  ///< per-stripe decode() wall time
  LatencyHistogram batch_seconds;   ///< decode_batch() wall time
  LatencyHistogram plan_seconds;    ///< plan build time (cache misses only)

  void reset();

  /// One JSON object with every counter and histogram. Stable key names —
  /// this is the export format of `ppm_cli batch --metrics` and the
  /// ablation benches.
  std::string to_json() const;
};

/// Coefficient certification & search metrics (search_coeff/). Process-
/// global rather than per-codec: certification runs once per geometry and
/// is shared by every SDCode/PMDSCode construction in the process. Every
/// member is individually thread-safe.
struct SearchMetrics {
  Counter searches;            ///< certified searches run (cache misses)
  Counter cache_hits;          ///< sd_coefficients served from memory
  Counter tuples_considered;   ///< candidate tuples drawn
  Counter tuples_prescreened;  ///< candidates killed by the rank prescreen
  Counter tuples_certified;    ///< candidates that proved exhaustively
  Counter tuples_rejected;     ///< candidates refuted by the oracle
  Counter classes_rank_checked;  ///< scenario classes rank-proven
  Counter plans_proven;          ///< classes driven through planverify+hazard

  // Certificate store (search_coeff/cert_store.h; zero-trust contract).
  Counter cert_loads;          ///< certificates re-proven and served
  Counter cert_load_failures;  ///< records failing parse or re-proof
  Counter cert_quarantined;    ///< records renamed aside as untrusted
  Counter cert_stores;         ///< certificates written to disk

  LatencyHistogram certify_seconds;  ///< per-tuple certification wall time

  void reset();

  /// `{"search":{...}}` — the export format of `ppm_cli search --metrics`.
  std::string to_json() const;
};

/// The process-global search metric set.
SearchMetrics& search_metrics();

/// Decode-serving front-end metrics (serve/). Process-global: one
/// DecodeServer typically serves the process, and the async fetch layer
/// (hedged reads) records here even when driven without a server. Every
/// member is individually thread-safe.
struct ServeMetrics {
  // Admission control (bounded request queue).
  Counter requests;          ///< submit() calls received
  Counter accepted;          ///< requests admitted to the queue
  Counter rejected;          ///< requests refused with backpressure
  Counter batches;           ///< plan-shared batches dispatched
  Counter batched_requests;  ///< requests folded into those batches

  // Overlapped decode outcomes.
  Counter overlapped_decodes;  ///< fast-path fetch/solve-overlap completions
  Counter group_solves_early;  ///< group solves started before last read
  Counter fallbacks;           ///< overlap abandoned → decode_resilient

  // Hedged reads. launched counts duplicate reads issued for stragglers;
  // won counts hedges whose completion arrived first; wasted counts
  // hedge completions discarded because another attempt already won.
  Counter hedges_launched;
  Counter hedges_won;
  Counter hedges_wasted;

  // Async fetch volume.
  Counter reads_submitted;  ///< read attempts issued (primaries + hedges)
  Counter reads_failed;     ///< attempts completing with kFailed

  // Per-stage tail latency.
  LatencyHistogram queue_seconds;    ///< admission → dispatch wait
  LatencyHistogram fetch_seconds;    ///< submit → last needed input landed
  LatencyHistogram solve_seconds;    ///< first solve start → last solve end
  LatencyHistogram request_seconds;  ///< submit → response completed
  LatencyHistogram read_seconds;     ///< per-attempt async read wall time

  void reset();

  /// `{"serve":{...}}` — the export format of `ppm_cli serve --metrics`.
  std::string to_json() const;
};

/// The process-global serving metric set.
ServeMetrics& serve_metrics();

/// Scrub & proactive-repair metrics (scrub/). Process-global: one
/// Scrubber typically patrols the process's fleet, and the repair
/// journal records here even when driven standalone. Every member is
/// individually thread-safe.
struct ScrubMetrics {
  // Sweep volume and detection.
  Counter sweeps;            ///< sweep() passes over a fleet
  Counter stripes_scanned;   ///< stripes examined across sweeps
  Counter blocks_scanned;    ///< blocks read + digest-checked
  Counter bytes_scanned;     ///< bytes fetched by scrub reads
  Counter read_failures;     ///< scrub reads exhausting their retries
  Counter crc_mismatches;    ///< digest mismatches on readable blocks
  Counter latent_detected;   ///< blocks classified latent (either cause)
  Counter spot_checks;       ///< verify-decode spot checks run
  Counter spot_check_failures;  ///< spot checks that did not complete

  // Risk-ranked repair scheduler.
  Counter stripes_ranked;      ///< damage reports risk-assessed
  Counter repairs_attempted;   ///< stripes entering repair
  Counter repairs_completed;   ///< every damaged block recovered + verified
  Counter repairs_partial;     ///< some blocks recovered, not all
  Counter repairs_failed;      ///< nothing recovered
  Counter repairs_skipped;     ///< damage healed (or claimed) before repair
  Counter blocks_repaired;     ///< blocks recovered, digest-verified
  Counter writebacks;          ///< repaired blocks written back to storage
  Counter writeback_failures;  ///< writebacks that failed (no commit)

  // Token-bucket pacing.
  Counter rate_limit_waits;  ///< scrub I/O acquisitions that had to sleep

  // Write-ahead repair journal (scrub/journal.h; zero-trust contract).
  Counter journal_intents;         ///< intent records published
  Counter journal_commits;         ///< records sealed committed
  Counter journal_store_failures;  ///< journal writes aborted by I/O errors
  Counter journal_replayed;        ///< records re-verified during replay
  Counter journal_quarantined;     ///< records renamed aside as untrusted
  Counter journal_pending;         ///< intent-only records found by replay

  // Latency.
  LatencyHistogram sweep_seconds;   ///< per-fleet sweep wall time
  LatencyHistogram repair_seconds;  ///< per-stripe repair wall time

  void reset();

  /// `{"scrub":{...}}` — the export format of `ppm_cli scrub --metrics`.
  std::string to_json() const;
};

/// The process-global scrub metric set.
ScrubMetrics& scrub_metrics();

}  // namespace ppm
