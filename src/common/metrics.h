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
//
// Every exported metric is declared once, in one of the MetricSets at the
// bottom of this file, with its JSON path beside it: the set's one reset()
// and one to_json() walk those registrations, so no key is spelled twice.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ppm {

class MetricSet;

/// Monotonic event counter. add()/value() are wait-free relaxed atomics.
class Counter {
 public:
  Counter() = default;
  /// A member of `set`, exported under the dotted JSON path `path`.
  Counter(MetricSet* set, std::string_view path);
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
  /// A member of `set`, exported under the dotted JSON path `path`.
  LatencyHistogram(MetricSet* set, std::string_view path);
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

/// The registry a metric struct derives from. Its Counter and
/// LatencyHistogram members join it as they are constructed, in
/// declaration order, each under a dotted JSON path; reset() and to_json()
/// walk those registrations. Each dot opens a nested object, so members
/// sharing a path prefix must be declared next to each other. Paths are
/// kept as views: pass string literals. Recording stays one relaxed
/// atomic on the member itself — the registry is read only by reset()
/// and to_json().
class MetricSet {
 public:
  MetricSet() = default;
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  /// Zero every registered metric.
  void reset();

  /// One JSON object holding every registered metric, nested by path.
  /// Stable key names — the export format of the ppm_cli `--metrics`
  /// flags and the ablation benches.
  std::string to_json() const;

 private:
  friend class Counter;
  friend class LatencyHistogram;

  // Exactly one of `counter` and `histogram` is set.
  struct Entry {
    std::string_view path;
    Counter* counter = nullptr;
    LatencyHistogram* histogram = nullptr;
  };
  std::vector<Entry> entries_;
};

/// The codec's metric set: plan-cache traffic, decode volume, and
/// latency distributions. One instance per Codec (aggregate across codecs
/// in the application if desired); every member is individually
/// thread-safe, so the struct needs no lock.
struct CodecMetrics : MetricSet {
  // Plan cache.
  Counter plan_hits{this, "plan_cache.hits"};  ///< plan_for served from cache
  Counter plan_misses{this, "plan_cache.misses"};  ///< plan_for had to build
  /// Cached plans discarded by LRU pressure.
  Counter plan_evictions{this, "plan_cache.evictions"};
  /// Undecodable scenarios (build returned null).
  Counter plan_failures{this, "plan_cache.failures"};

  // Plan verification (populated in PPM_VERIFY_PLANS / Debug builds,
  // where every built plan runs through ppm::planverify before insertion).
  /// Plans proven sound before caching.
  Counter plans_verified{this, "plan_cache.verified"};
  /// Plans rejected by the verifier.
  Counter plan_verify_failures{this, "plan_cache.verify_failures"};

  // Concurrency-hazard analysis (analyze_hazard/). Every built plan is
  // analyzed so it carries its PlanProfile; in PPM_VERIFY_PLANS builds a
  // hazardous plan additionally throws. The two accumulators divide into
  // the fleet-level parallelism picture: analyzed_work /
  // analyzed_critical_path is the average max-speedup bound over every
  // plan built.
  /// Plans profiled (and proven race-free).
  Counter plans_analyzed{this, "hazard.analyzed"};
  /// Plans with a concurrency hazard.
  Counter hazard_failures{this, "hazard.failures"};
  /// Σ total mult_XOR work of analyzed plans.
  Counter analyzed_work{this, "hazard.work_mult_xors"};
  /// Σ critical-path mult_XORs of the same plans.
  Counter analyzed_critical_path{this, "hazard.critical_path_mult_xors"};

  // Persistent plan store (plan_store/; populated once a store is
  // attached to the codec). Every load — read-through or warm — passed
  // the zero-trust gate (parse + planverify + hazard re-analysis);
  // load_failures counts records that did not, and quarantined counts the
  // files renamed aside as a result.
  /// Plans served from disk, re-verified.
  Counter planstore_loads{this, "planstore.loads"};
  /// Records failing parse or re-proof.
  Counter planstore_load_failures{this, "planstore.load_failures"};
  /// Plans written through to disk.
  Counter planstore_stores{this, "planstore.stores"};
  /// put() aborted by an I/O error.
  Counter planstore_store_failures{this, "planstore.store_failures"};
  /// Records renamed aside as untrusted.
  Counter planstore_quarantined{this, "planstore.quarantined"};
  /// warm() preloads entering the cache.
  Counter planstore_warm_hits{this, "planstore.warm_hits"};

  // Resilient decode pipeline (codec/resilient.cpp). Events, not blocks:
  // one decode that retries a block three times counts three retries, and
  // corruption_detected counts every CRC mismatch observed (a persistently
  // corrupt block re-checked across retries counts each check).
  /// Survivor-read retries issued.
  Counter resilience_retries{this, "resilience.retries"};
  /// Survivors promoted to faulty.
  Counter resilience_escalations{this, "resilience.escalations"};
  /// Decodes degraded to partial.
  Counter resilience_partial_decodes{this, "resilience.partial_decodes"};
  /// Decodes that ran out of budget.
  Counter resilience_deadline_exceeded{this, "resilience.deadline_exceeded"};
  /// Expected-CRC mismatches.
  Counter resilience_corruption_detected{this,
                                         "resilience.corruption_detected"};

  // Decode volume.
  Counter decodes{this, "decode.decodes"};  ///< single-stripe decode() calls
  Counter batches{this, "decode.batches"};  ///< decode_batch() calls
  /// Stripes across all batches + decodes.
  Counter stripes_decoded{this, "decode.stripes"};
  /// Region ops issued (the paper's C, summed).
  Counter mult_xors{this, "decode.mult_xors"};
  /// Source bytes read by region ops.
  Counter bytes_touched{this, "decode.bytes_touched"};

  // Slice fan-out (docs/CONCURRENCY.md §5): stripes, single or batched,
  // whose plan ran as more than one slice on the codec pool.
  Counter stripes_sliced{this, "decode.sliced"};

  // Latency.
  /// Per-stripe decode() wall time.
  LatencyHistogram decode_seconds{this, "latency.decode"};
  /// decode_batch() wall time.
  LatencyHistogram batch_seconds{this, "latency.batch"};
  /// Plan build time (cache misses only).
  LatencyHistogram plan_seconds{this, "latency.plan"};
};

/// Coefficient certification & search metrics (search_coeff/). Process-
/// global rather than per-codec: certification runs once per geometry and
/// is shared by every SDCode/PMDSCode construction in the process. Every
/// member is individually thread-safe. Exported as `{"search":{...}}` by
/// `ppm_cli search --metrics`.
struct SearchMetrics : MetricSet {
  /// Certified searches run (cache misses).
  Counter searches{this, "search.searches"};
  /// sd_coefficients served from memory.
  Counter cache_hits{this, "search.cache_hits"};
  /// Candidate tuples drawn.
  Counter tuples_considered{this, "search.tuples_considered"};
  /// Candidates killed by the rank prescreen.
  Counter tuples_prescreened{this, "search.tuples_prescreened"};
  /// Candidates that proved exhaustively.
  Counter tuples_certified{this, "search.tuples_certified"};
  /// Candidates refuted by the oracle.
  Counter tuples_rejected{this, "search.tuples_rejected"};
  /// Scenario classes rank-proven.
  Counter classes_rank_checked{this, "search.classes_rank_checked"};
  /// Classes driven through planverify+hazard.
  Counter plans_proven{this, "search.plans_proven"};

  // Certificate store (search_coeff/cert_store.h; zero-trust contract).
  /// Certificates re-proven and served.
  Counter cert_loads{this, "search.cert_loads"};
  /// Records failing parse or re-proof.
  Counter cert_load_failures{this, "search.cert_load_failures"};
  /// Records renamed aside as untrusted.
  Counter cert_quarantined{this, "search.cert_quarantined"};
  /// Certificates written to disk.
  Counter cert_stores{this, "search.cert_stores"};

  /// Per-tuple certification wall time.
  LatencyHistogram certify_seconds{this, "search.certify"};
};

/// The process-global search metric set.
SearchMetrics& search_metrics();

/// Decode-serving front-end metrics (serve/). Process-global: one
/// DecodeServer typically serves the process, and the async fetch layer
/// (hedged reads) records here even when driven without a server. Every
/// member is individually thread-safe. Exported as `{"serve":{...}}` by
/// `ppm_cli serve --metrics`.
struct ServeMetrics : MetricSet {
  // Admission control (bounded request queue).
  Counter requests{this, "serve.requests"};  ///< submit() calls received
  Counter accepted{this, "serve.accepted"};  ///< requests admitted to the queue
  /// Requests refused with backpressure.
  Counter rejected{this, "serve.rejected"};
  Counter batches{this, "serve.batches"};  ///< plan-shared batches dispatched
  /// Requests folded into those batches.
  Counter batched_requests{this, "serve.batched_requests"};

  // Overlapped decode outcomes.
  /// Served decodes completed in their first ladder round.
  Counter overlapped_decodes{this, "serve.overlapped_decodes"};
  /// Group solves started before last read.
  Counter group_solves_early{this, "serve.group_solves_early"};
  /// Served decodes whose ladder escalated or degraded.
  Counter fallbacks{this, "serve.fallbacks"};

  // Hedged reads. launched counts duplicate reads issued for stragglers;
  // won counts hedges whose completion arrived first; wasted counts
  // hedge completions discarded because another attempt already won.
  Counter hedges_launched{this, "serve.hedges_launched"};
  Counter hedges_won{this, "serve.hedges_won"};
  Counter hedges_wasted{this, "serve.hedges_wasted"};

  // Async fetch volume.
  /// Read attempts issued (primaries + hedges).
  Counter reads_submitted{this, "serve.reads_submitted"};
  /// Attempts completing with kFailed.
  Counter reads_failed{this, "serve.reads_failed"};

  // Per-stage tail latency.
  /// Admission → dispatch wait.
  LatencyHistogram queue_seconds{this, "serve.latency.queue"};
  /// Submit → last needed input landed.
  LatencyHistogram fetch_seconds{this, "serve.latency.fetch"};
  /// First solve start → last solve end.
  LatencyHistogram solve_seconds{this, "serve.latency.solve"};
  /// Submit → response completed.
  LatencyHistogram request_seconds{this, "serve.latency.request"};
  /// Per-attempt async read wall time.
  LatencyHistogram read_seconds{this, "serve.latency.read"};
};

/// The process-global serving metric set.
ServeMetrics& serve_metrics();

/// Scrub & proactive-repair metrics (scrub/). Process-global: one
/// Scrubber typically patrols the process's fleet, and the repair
/// journal records here even when driven standalone. Every member is
/// individually thread-safe. Exported as `{"scrub":{...}}` by
/// `ppm_cli scrub --metrics`.
struct ScrubMetrics : MetricSet {
  // Sweep volume and detection.
  Counter sweeps{this, "scrub.sweeps"};  ///< sweep() passes over a fleet
  /// Stripes examined across sweeps.
  Counter stripes_scanned{this, "scrub.stripes_scanned"};
  /// Blocks read + digest-checked.
  Counter blocks_scanned{this, "scrub.blocks_scanned"};
  /// Bytes fetched by scrub reads.
  Counter bytes_scanned{this, "scrub.bytes_scanned"};
  /// Scrub reads exhausting their retries.
  Counter read_failures{this, "scrub.read_failures"};
  /// Digest mismatches on readable blocks.
  Counter crc_mismatches{this, "scrub.crc_mismatches"};
  /// Blocks classified latent (either cause).
  Counter latent_detected{this, "scrub.latent_detected"};
  /// Verify-decode spot checks run.
  Counter spot_checks{this, "scrub.spot_checks"};
  /// Spot checks that did not complete.
  Counter spot_check_failures{this, "scrub.spot_check_failures"};

  // Risk-ranked repair scheduler.
  /// Damage reports risk-assessed.
  Counter stripes_ranked{this, "scrub.stripes_ranked"};
  /// Stripes entering repair.
  Counter repairs_attempted{this, "scrub.repairs_attempted"};
  /// Every damaged block recovered + verified.
  Counter repairs_completed{this, "scrub.repairs_completed"};
  /// Some blocks recovered, not all.
  Counter repairs_partial{this, "scrub.repairs_partial"};
  Counter repairs_failed{this, "scrub.repairs_failed"};  ///< nothing recovered
  /// Damage healed (or claimed) before repair.
  Counter repairs_skipped{this, "scrub.repairs_skipped"};
  /// Blocks recovered, digest-verified.
  Counter blocks_repaired{this, "scrub.blocks_repaired"};
  /// Repaired blocks written back to storage.
  Counter writebacks{this, "scrub.writebacks"};
  /// Writebacks that failed (no commit).
  Counter writeback_failures{this, "scrub.writeback_failures"};

  // Token-bucket pacing.
  /// Scrub I/O acquisitions that had to sleep.
  Counter rate_limit_waits{this, "scrub.rate_limit_waits"};

  // Write-ahead repair journal (scrub/journal.h; zero-trust contract).
  /// Intent records published.
  Counter journal_intents{this, "scrub.journal_intents"};
  /// Records sealed committed.
  Counter journal_commits{this, "scrub.journal_commits"};
  /// Journal writes aborted by I/O errors.
  Counter journal_store_failures{this, "scrub.journal_store_failures"};
  /// Records re-verified during replay.
  Counter journal_replayed{this, "scrub.journal_replayed"};
  /// Records renamed aside as untrusted.
  Counter journal_quarantined{this, "scrub.journal_quarantined"};
  /// Intent-only records found by replay.
  Counter journal_pending{this, "scrub.journal_pending"};

  // Latency.
  /// Per-fleet sweep wall time.
  LatencyHistogram sweep_seconds{this, "scrub.latency.sweep"};
  /// Per-stripe repair wall time.
  LatencyHistogram repair_seconds{this, "scrub.latency.repair"};
};

/// The process-global scrub metric set.
ScrubMetrics& scrub_metrics();

}  // namespace ppm
