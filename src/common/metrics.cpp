#include "common/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace ppm {

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool trailing_comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 "%s", key, value,
                trailing_comma ? "," : "");
  out += buf;
}

void append_kv(std::string& out, const char* key, double value,
               bool trailing_comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g%s", key, value,
                trailing_comma ? "," : "");
  out += buf;
}

}  // namespace

double LatencyHistogram::quantile_seconds(double q) const {
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Point-in-time copy so rank and cumulative walk agree.
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total - 1);
  double cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (rank < next) {
      const double frac =
          (rank - cumulative) / static_cast<double>(counts[i]);
      const double lo = static_cast<double>(bucket_floor_ns(i));
      const double hi = static_cast<double>(
          i + 1 >= kBuckets ? bucket_floor_ns(i) * 2 : bucket_ceil_ns(i));
      const double v = (lo + frac * (hi - lo)) * 1e-9;
      // Interpolation can overshoot the true tail; never report a
      // quantile above the observed maximum.
      const double mx = max_seconds();
      return mx > 0 && v > mx ? mx : v;
    }
    cumulative = next;
  }
  return max_seconds();
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::append_json(std::string& out) const {
  out += '{';
  append_kv(out, "count", count());
  append_kv(out, "total_s", total_seconds());
  append_kv(out, "mean_s", mean_seconds());
  append_kv(out, "p50_s", quantile_seconds(0.50));
  append_kv(out, "p95_s", quantile_seconds(0.95));
  append_kv(out, "p99_s", quantile_seconds(0.99));
  append_kv(out, "p999_s", quantile_seconds(0.999));
  append_kv(out, "max_s", max_seconds());
  out += "\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = bucket_count(i);
    if (n == 0) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s[%" PRIu64 ",%" PRIu64 "]",
                  first ? "" : ",", bucket_floor_ns(i), n);
    out += buf;
    first = false;
  }
  out += "]}";
}

void CodecMetrics::reset() {
  plan_hits.reset();
  plan_misses.reset();
  plan_evictions.reset();
  plan_failures.reset();
  plans_verified.reset();
  plan_verify_failures.reset();
  plans_analyzed.reset();
  hazard_failures.reset();
  analyzed_work.reset();
  analyzed_critical_path.reset();
  planstore_loads.reset();
  planstore_load_failures.reset();
  planstore_stores.reset();
  planstore_store_failures.reset();
  planstore_quarantined.reset();
  planstore_warm_hits.reset();
  resilience_retries.reset();
  resilience_escalations.reset();
  resilience_partial_decodes.reset();
  resilience_deadline_exceeded.reset();
  resilience_corruption_detected.reset();
  decodes.reset();
  batches.reset();
  stripes_decoded.reset();
  mult_xors.reset();
  bytes_touched.reset();
  stripes_sliced.reset();
  decode_seconds.reset();
  batch_seconds.reset();
  plan_seconds.reset();
}

std::string CodecMetrics::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"plan_cache\":{";
  append_kv(out, "hits", plan_hits.value());
  append_kv(out, "misses", plan_misses.value());
  append_kv(out, "evictions", plan_evictions.value());
  append_kv(out, "failures", plan_failures.value());
  append_kv(out, "verified", plans_verified.value());
  append_kv(out, "verify_failures", plan_verify_failures.value(), false);
  out += "},\"hazard\":{";
  append_kv(out, "analyzed", plans_analyzed.value());
  append_kv(out, "failures", hazard_failures.value());
  append_kv(out, "work_mult_xors", analyzed_work.value());
  append_kv(out, "critical_path_mult_xors", analyzed_critical_path.value(),
            false);
  out += "},\"planstore\":{";
  append_kv(out, "loads", planstore_loads.value());
  append_kv(out, "load_failures", planstore_load_failures.value());
  append_kv(out, "stores", planstore_stores.value());
  append_kv(out, "store_failures", planstore_store_failures.value());
  append_kv(out, "quarantined", planstore_quarantined.value());
  append_kv(out, "warm_hits", planstore_warm_hits.value(), false);
  out += "},\"resilience\":{";
  append_kv(out, "retries", resilience_retries.value());
  append_kv(out, "escalations", resilience_escalations.value());
  append_kv(out, "partial_decodes", resilience_partial_decodes.value());
  append_kv(out, "deadline_exceeded", resilience_deadline_exceeded.value());
  append_kv(out, "corruption_detected",
            resilience_corruption_detected.value(), false);
  out += "},\"decode\":{";
  append_kv(out, "decodes", decodes.value());
  append_kv(out, "batches", batches.value());
  append_kv(out, "stripes", stripes_decoded.value());
  append_kv(out, "mult_xors", mult_xors.value());
  append_kv(out, "bytes_touched", bytes_touched.value());
  append_kv(out, "sliced", stripes_sliced.value(), false);
  out += "},\"latency\":{\"decode\":";
  decode_seconds.append_json(out);
  out += ",\"batch\":";
  batch_seconds.append_json(out);
  out += ",\"plan\":";
  plan_seconds.append_json(out);
  out += "}}";
  return out;
}

void SearchMetrics::reset() {
  searches.reset();
  cache_hits.reset();
  tuples_considered.reset();
  tuples_prescreened.reset();
  tuples_certified.reset();
  tuples_rejected.reset();
  classes_rank_checked.reset();
  plans_proven.reset();
  cert_loads.reset();
  cert_load_failures.reset();
  cert_quarantined.reset();
  cert_stores.reset();
  certify_seconds.reset();
}

std::string SearchMetrics::to_json() const {
  std::string out;
  out.reserve(512);
  out += "{\"search\":{";
  append_kv(out, "searches", searches.value());
  append_kv(out, "cache_hits", cache_hits.value());
  append_kv(out, "tuples_considered", tuples_considered.value());
  append_kv(out, "tuples_prescreened", tuples_prescreened.value());
  append_kv(out, "tuples_certified", tuples_certified.value());
  append_kv(out, "tuples_rejected", tuples_rejected.value());
  append_kv(out, "classes_rank_checked", classes_rank_checked.value());
  append_kv(out, "plans_proven", plans_proven.value());
  append_kv(out, "cert_loads", cert_loads.value());
  append_kv(out, "cert_load_failures", cert_load_failures.value());
  append_kv(out, "cert_quarantined", cert_quarantined.value());
  append_kv(out, "cert_stores", cert_stores.value());
  out += "\"certify\":";
  certify_seconds.append_json(out);
  out += "}}";
  return out;
}

SearchMetrics& search_metrics() {
  static SearchMetrics metrics;
  return metrics;
}

void ServeMetrics::reset() {
  requests.reset();
  accepted.reset();
  rejected.reset();
  batches.reset();
  batched_requests.reset();
  overlapped_decodes.reset();
  group_solves_early.reset();
  fallbacks.reset();
  hedges_launched.reset();
  hedges_won.reset();
  hedges_wasted.reset();
  reads_submitted.reset();
  reads_failed.reset();
  queue_seconds.reset();
  fetch_seconds.reset();
  solve_seconds.reset();
  request_seconds.reset();
  read_seconds.reset();
}

std::string ServeMetrics::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"serve\":{";
  append_kv(out, "requests", requests.value());
  append_kv(out, "accepted", accepted.value());
  append_kv(out, "rejected", rejected.value());
  append_kv(out, "batches", batches.value());
  append_kv(out, "batched_requests", batched_requests.value());
  append_kv(out, "overlapped_decodes", overlapped_decodes.value());
  append_kv(out, "group_solves_early", group_solves_early.value());
  append_kv(out, "fallbacks", fallbacks.value());
  append_kv(out, "hedges_launched", hedges_launched.value());
  append_kv(out, "hedges_won", hedges_won.value());
  append_kv(out, "hedges_wasted", hedges_wasted.value());
  append_kv(out, "reads_submitted", reads_submitted.value());
  append_kv(out, "reads_failed", reads_failed.value());
  out += "\"latency\":{\"queue\":";
  queue_seconds.append_json(out);
  out += ",\"fetch\":";
  fetch_seconds.append_json(out);
  out += ",\"solve\":";
  solve_seconds.append_json(out);
  out += ",\"request\":";
  request_seconds.append_json(out);
  out += ",\"read\":";
  read_seconds.append_json(out);
  out += "}}}";
  return out;
}

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics;
  return metrics;
}

void ScrubMetrics::reset() {
  sweeps.reset();
  stripes_scanned.reset();
  blocks_scanned.reset();
  bytes_scanned.reset();
  read_failures.reset();
  crc_mismatches.reset();
  latent_detected.reset();
  spot_checks.reset();
  spot_check_failures.reset();
  stripes_ranked.reset();
  repairs_attempted.reset();
  repairs_completed.reset();
  repairs_partial.reset();
  repairs_failed.reset();
  repairs_skipped.reset();
  blocks_repaired.reset();
  writebacks.reset();
  writeback_failures.reset();
  rate_limit_waits.reset();
  journal_intents.reset();
  journal_commits.reset();
  journal_store_failures.reset();
  journal_replayed.reset();
  journal_quarantined.reset();
  journal_pending.reset();
  sweep_seconds.reset();
  repair_seconds.reset();
}

std::string ScrubMetrics::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"scrub\":{";
  append_kv(out, "sweeps", sweeps.value());
  append_kv(out, "stripes_scanned", stripes_scanned.value());
  append_kv(out, "blocks_scanned", blocks_scanned.value());
  append_kv(out, "bytes_scanned", bytes_scanned.value());
  append_kv(out, "read_failures", read_failures.value());
  append_kv(out, "crc_mismatches", crc_mismatches.value());
  append_kv(out, "latent_detected", latent_detected.value());
  append_kv(out, "spot_checks", spot_checks.value());
  append_kv(out, "spot_check_failures", spot_check_failures.value());
  append_kv(out, "stripes_ranked", stripes_ranked.value());
  append_kv(out, "repairs_attempted", repairs_attempted.value());
  append_kv(out, "repairs_completed", repairs_completed.value());
  append_kv(out, "repairs_partial", repairs_partial.value());
  append_kv(out, "repairs_failed", repairs_failed.value());
  append_kv(out, "repairs_skipped", repairs_skipped.value());
  append_kv(out, "blocks_repaired", blocks_repaired.value());
  append_kv(out, "writebacks", writebacks.value());
  append_kv(out, "writeback_failures", writeback_failures.value());
  append_kv(out, "rate_limit_waits", rate_limit_waits.value());
  append_kv(out, "journal_intents", journal_intents.value());
  append_kv(out, "journal_commits", journal_commits.value());
  append_kv(out, "journal_store_failures", journal_store_failures.value());
  append_kv(out, "journal_replayed", journal_replayed.value());
  append_kv(out, "journal_quarantined", journal_quarantined.value());
  append_kv(out, "journal_pending", journal_pending.value());
  out += "\"latency\":{\"sweep\":";
  sweep_seconds.append_json(out);
  out += ",\"repair\":";
  repair_seconds.append_json(out);
  out += "}}}";
  return out;
}

ScrubMetrics& scrub_metrics() {
  static ScrubMetrics metrics;
  return metrics;
}

}  // namespace ppm
