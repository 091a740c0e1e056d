// Metrics primitives: counters, the log2 latency histogram, JSON export.
#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace ppm {
namespace {

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsSum) {
  Counter c;
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  threads.clear();  // join
  EXPECT_EQ(c.value(), 40000u);
}

TEST(LatencyHistogram, BucketOfIsLog2) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(LatencyHistogram, CountSumMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_seconds(0.5), 0.0);
  h.record_nanos(1000);
  h.record_nanos(2000);
  h.record_nanos(3000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.total_seconds(), 6000e-9);
  EXPECT_DOUBLE_EQ(h.mean_seconds(), 2000e-9);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 3000e-9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.0);
}

TEST(LatencyHistogram, QuantilesAreMonotonicAndBracketed) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 1000000; ns *= 2) h.record_nanos(ns);
  double prev = 0;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = h.quantile_seconds(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // Everything recorded is <= 1ms; bucket interpolation can at most
  // reach the top bucket's ceiling (2x the floor).
  EXPECT_LE(h.quantile_seconds(1.0), 2e-3);
  EXPECT_GT(h.quantile_seconds(0.5), 0.0);
}

TEST(LatencyHistogram, QuantileInterpolationIsPinned) {
  // Satellite: p50/p99/p999 derivation, pinned against hand-computed
  // linear interpolation. 4 samples of 20ns land in bucket [16,32), 4
  // samples of 100ns in [64,128); total 8.
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record_nanos(20);
  for (int i = 0; i < 4; ++i) h.record_nanos(100);
  // p50: rank = 0.5 * 7 = 3.5 -> frac 3.5/4 in [16,32) -> 16 + 0.875*16.
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.5), 30e-9);
  // p999: rank = 6.993 -> frac 2.993/4 in [64,128) -> 111.9ns, clamped
  // to the observed max of 100ns (interpolation never exceeds max).
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.999), 100e-9);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.999), h.max_seconds());

  // Unclamped interpolation, exact within fp error: 1000 samples of 20ns
  // + one 100ns outlier; p50 rank = 0.5*1000 = 500 -> 16 + (500/1000)*16.
  LatencyHistogram g;
  for (int i = 0; i < 1000; ++i) g.record_nanos(20);
  g.record_nanos(100);
  EXPECT_NEAR(g.quantile_seconds(0.5), 24e-9, 1e-15);
}

TEST(LatencyHistogram, JsonCarriesP999) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record_nanos(20);
  for (int i = 0; i < 4; ++i) h.record_nanos(100);
  std::string out;
  h.append_json(out);
  EXPECT_NE(out.find("\"p999_s\":1e-07"), std::string::npos) << out;
  // Derived quantiles stay ordered in the serialized form too.
  EXPECT_LT(out.find("\"p50_s\""), out.find("\"p95_s\""));
  EXPECT_LT(out.find("\"p95_s\""), out.find("\"p99_s\""));
  EXPECT_LT(out.find("\"p99_s\""), out.find("\"p999_s\""));
  EXPECT_LT(out.find("\"p999_s\""), out.find("\"max_s\""));
}

TEST(LatencyHistogram, RecordSecondsRoundTrips) {
  LatencyHistogram h;
  h.record_seconds(0.001);  // 1e6 ns -> bucket 19 ([524288, 1048576))
  EXPECT_EQ(h.bucket_count(LatencyHistogram::bucket_of(1000000)), 1u);
  h.record_seconds(-1.0);  // clamped to 0
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyHistogram, JsonListsNonEmptyBuckets) {
  LatencyHistogram h;
  h.record_nanos(10);
  h.record_nanos(10);
  std::string out;
  h.append_json(out);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"buckets\":[[8,2]]"), std::string::npos) << out;
}

TEST(CodecMetrics, JsonHasStableKeys) {
  CodecMetrics m;
  m.plan_hits.add(3);
  m.plan_misses.add(2);
  m.plan_evictions.add(1);
  m.mult_xors.add(29);
  m.stripes_sliced.add(5);
  m.decode_seconds.record_nanos(100);
  const std::string json = m.to_json();
  for (const char* key :
       {"\"plan_cache\"", "\"hits\":3", "\"misses\":2", "\"evictions\":1",
        "\"failures\":0", "\"decode\"", "\"mult_xors\":29", "\"sliced\":5",
        "\"latency\"", "\"batch\"", "\"plan\"", "\"p50_s\"",
        "\"p99_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  m.reset();
  EXPECT_EQ(m.plan_hits.value(), 0u);
  EXPECT_EQ(m.stripes_sliced.value(), 0u);
  EXPECT_EQ(m.decode_seconds.count(), 0u);
}

// ---- Pinned export bytes ------------------------------------------------
//
// Each set's whole to_json() string, byte for byte: ppm_cli's --metrics
// output, the ablation benches and CI parse these keys. Every counter gets
// a distinct value (its position in declaration order), so a key bound to
// the wrong member shows as a wrong number; zeros print too, so the
// literals pin every key and its order.

/// Gives the i-th counter the value i + 1.
void number(std::initializer_list<Counter*> counters) {
  std::uint64_t v = 0;
  for (Counter* c : counters) c->add(++v);
}

void fill(CodecMetrics& m) {
  number({&m.plan_hits, &m.plan_misses, &m.plan_evictions, &m.plan_failures,
          &m.plans_verified, &m.plan_verify_failures, &m.plans_analyzed,
          &m.hazard_failures, &m.analyzed_work, &m.analyzed_critical_path,
          &m.planstore_loads, &m.planstore_load_failures, &m.planstore_stores,
          &m.planstore_store_failures, &m.planstore_quarantined,
          &m.planstore_warm_hits, &m.resilience_retries,
          &m.resilience_escalations, &m.resilience_partial_decodes,
          &m.resilience_deadline_exceeded, &m.resilience_corruption_detected,
          &m.decodes, &m.batches, &m.stripes_decoded, &m.mult_xors,
          &m.bytes_touched, &m.stripes_sliced});
  m.decode_seconds.record_nanos(100);
  m.decode_seconds.record_nanos(3000);
  m.batch_seconds.record_nanos(1'000'000);
}

void fill(SearchMetrics& m) {
  number({&m.searches, &m.cache_hits, &m.tuples_considered,
          &m.tuples_prescreened, &m.tuples_certified, &m.tuples_rejected,
          &m.classes_rank_checked, &m.plans_proven, &m.cert_loads,
          &m.cert_load_failures, &m.cert_quarantined, &m.cert_stores});
  m.certify_seconds.record_nanos(20);
  m.certify_seconds.record_nanos(70'000);
}

void fill(ServeMetrics& m) {
  number({&m.requests, &m.accepted, &m.rejected, &m.batches,
          &m.batched_requests, &m.overlapped_decodes, &m.group_solves_early,
          &m.fallbacks, &m.hedges_launched, &m.hedges_won, &m.hedges_wasted,
          &m.reads_submitted, &m.reads_failed});
  m.queue_seconds.record_nanos(1000);
  m.fetch_seconds.record_nanos(2'000'000);
  m.fetch_seconds.record_nanos(5'000'000);
  m.request_seconds.record_nanos(3'000'000);
  m.read_seconds.record_nanos(40'000);
}

void fill(ScrubMetrics& m) {
  number({&m.sweeps, &m.stripes_scanned, &m.blocks_scanned, &m.bytes_scanned,
          &m.read_failures, &m.crc_mismatches, &m.latent_detected,
          &m.spot_checks, &m.spot_check_failures, &m.stripes_ranked,
          &m.repairs_attempted, &m.repairs_completed, &m.repairs_partial,
          &m.repairs_failed, &m.repairs_skipped, &m.blocks_repaired,
          &m.writebacks, &m.writeback_failures, &m.rate_limit_waits,
          &m.journal_intents, &m.journal_commits, &m.journal_store_failures,
          &m.journal_replayed, &m.journal_quarantined, &m.journal_pending});
  m.sweep_seconds.record_nanos(9'000'000);
  m.repair_seconds.record_nanos(500);
  m.repair_seconds.record_nanos(600);
}

constexpr const char* kCodecJson =
    R"({"plan_cache":{"hits":1,"misses":2,"evictions":3,"failures":4,)"
    R"("verified":5,"verify_failures":6},"hazard":{"analyzed":7,"failures":8,)"
    R"("work_mult_xors":9,"critical_path_mult_xors":10},)"
    R"("planstore":{"loads":11,"load_failures":12,"stores":13,)"
    R"("store_failures":14,"quarantined":15,"warm_hits":16},)"
    R"("resilience":{"retries":17,"escalations":18,"partial_decodes":19,)"
    R"("deadline_exceeded":20,"corruption_detected":21},)"
    R"("decode":{"decodes":22,"batches":23,"stripes":24,"mult_xors":25,)"
    R"("bytes_touched":26,"sliced":27},"latency":{"decode":{"count":2,)"
    R"("total_s":3.1e-06,"mean_s":1.55e-06,"p50_s":9.6e-08,"p95_s":1.248e-07,)"
    R"("p99_s":1.2736e-07,"p999_s":1.27936e-07,"max_s":3e-06,"buckets":[[64,)"
    R"(1],[2048,1]]},"batch":{"count":1,"total_s":0.001,"mean_s":0.001,)"
    R"("p50_s":0.000524288,"p95_s":0.000524288,"p99_s":0.000524288,)"
    R"("p999_s":0.000524288,"max_s":0.001,"buckets":[[524288,1]]},)"
    R"("plan":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]}}})";
constexpr const char* kCodecZero =
    R"({"plan_cache":{"hits":0,"misses":0,"evictions":0,"failures":0,)"
    R"("verified":0,"verify_failures":0},"hazard":{"analyzed":0,"failures":0,)"
    R"("work_mult_xors":0,"critical_path_mult_xors":0},)"
    R"("planstore":{"loads":0,"load_failures":0,"stores":0,)"
    R"("store_failures":0,"quarantined":0,"warm_hits":0},)"
    R"("resilience":{"retries":0,"escalations":0,"partial_decodes":0,)"
    R"("deadline_exceeded":0,"corruption_detected":0},"decode":{"decodes":0,)"
    R"("batches":0,"stripes":0,"mult_xors":0,"bytes_touched":0,"sliced":0},)"
    R"("latency":{"decode":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,)"
    R"("p95_s":0,"p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},)"
    R"("batch":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},"plan":{"count":0,)"
    R"("total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,"p99_s":0,"p999_s":0,)"
    R"("max_s":0,"buckets":[]}}})";
constexpr const char* kSearchJson =
    R"({"search":{"searches":1,"cache_hits":2,"tuples_considered":3,)"
    R"("tuples_prescreened":4,"tuples_certified":5,"tuples_rejected":6,)"
    R"("classes_rank_checked":7,"plans_proven":8,"cert_loads":9,)"
    R"("cert_load_failures":10,"cert_quarantined":11,"cert_stores":12,)"
    R"("certify":{"count":2,"total_s":7.002e-05,"mean_s":3.501e-05,)"
    R"("p50_s":2.4e-08,"p95_s":3.12e-08,"p99_s":3.184e-08,)"
    R"("p999_s":3.1984e-08,"max_s":7e-05,"buckets":[[16,1],[65536,1]]}}})";
constexpr const char* kSearchZero =
    R"({"search":{"searches":0,"cache_hits":0,"tuples_considered":0,)"
    R"("tuples_prescreened":0,"tuples_certified":0,"tuples_rejected":0,)"
    R"("classes_rank_checked":0,"plans_proven":0,"cert_loads":0,)"
    R"("cert_load_failures":0,"cert_quarantined":0,"cert_stores":0,)"
    R"("certify":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]}}})";
constexpr const char* kServeJson =
    R"({"serve":{"requests":1,"accepted":2,"rejected":3,"batches":4,)"
    R"("batched_requests":5,"overlapped_decodes":6,"group_solves_early":7,)"
    R"("fallbacks":8,"hedges_launched":9,"hedges_won":10,"hedges_wasted":11,)"
    R"("reads_submitted":12,"reads_failed":13,"latency":{"queue":{"count":1,)"
    R"("total_s":1e-06,"mean_s":1e-06,"p50_s":5.12e-07,"p95_s":5.12e-07,)"
    R"("p99_s":5.12e-07,"p999_s":5.12e-07,"max_s":1e-06,"buckets":[[512,1]]},)"
    R"("fetch":{"count":2,"total_s":0.007,"mean_s":0.0035,)"
    R"("p50_s":0.001572864,"p95_s":0.0020447232,"p99_s":0.00208666624,)"
    R"("p999_s":0.00209610342,"max_s":0.005,"buckets":[[1048576,1],[4194304,)"
    R"(1]]},"solve":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},"request":{"count":1,)"
    R"("total_s":0.003,"mean_s":0.003,"p50_s":0.002097152,)"
    R"("p95_s":0.002097152,"p99_s":0.002097152,"p999_s":0.002097152,)"
    R"("max_s":0.003,"buckets":[[2097152,1]]},"read":{"count":1,)"
    R"("total_s":4e-05,"mean_s":4e-05,"p50_s":3.2768e-05,"p95_s":3.2768e-05,)"
    R"("p99_s":3.2768e-05,"p999_s":3.2768e-05,"max_s":4e-05,)"
    R"("buckets":[[32768,1]]}}}})";
constexpr const char* kServeZero =
    R"({"serve":{"requests":0,"accepted":0,"rejected":0,"batches":0,)"
    R"("batched_requests":0,"overlapped_decodes":0,"group_solves_early":0,)"
    R"("fallbacks":0,"hedges_launched":0,"hedges_won":0,"hedges_wasted":0,)"
    R"("reads_submitted":0,"reads_failed":0,"latency":{"queue":{"count":0,)"
    R"("total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,"p99_s":0,"p999_s":0,)"
    R"("max_s":0,"buckets":[]},"fetch":{"count":0,"total_s":0,"mean_s":0,)"
    R"("p50_s":0,"p95_s":0,"p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},)"
    R"("solve":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},"request":{"count":0,)"
    R"("total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,"p99_s":0,"p999_s":0,)"
    R"("max_s":0,"buckets":[]},"read":{"count":0,"total_s":0,"mean_s":0,)"
    R"("p50_s":0,"p95_s":0,"p99_s":0,"p999_s":0,"max_s":0,"buckets":[]}}}})";
constexpr const char* kScrubJson =
    R"({"scrub":{"sweeps":1,"stripes_scanned":2,"blocks_scanned":3,)"
    R"("bytes_scanned":4,"read_failures":5,"crc_mismatches":6,)"
    R"("latent_detected":7,"spot_checks":8,"spot_check_failures":9,)"
    R"("stripes_ranked":10,"repairs_attempted":11,"repairs_completed":12,)"
    R"("repairs_partial":13,"repairs_failed":14,"repairs_skipped":15,)"
    R"("blocks_repaired":16,"writebacks":17,"writeback_failures":18,)"
    R"("rate_limit_waits":19,"journal_intents":20,"journal_commits":21,)"
    R"("journal_store_failures":22,"journal_replayed":23,)"
    R"("journal_quarantined":24,"journal_pending":25,)"
    R"("latency":{"sweep":{"count":1,"total_s":0.009,"mean_s":0.009,)"
    R"("p50_s":0.008388608,"p95_s":0.008388608,"p99_s":0.008388608,)"
    R"("p999_s":0.008388608,"max_s":0.009,"buckets":[[8388608,1]]},)"
    R"("repair":{"count":2,"total_s":1.1e-06,"mean_s":5.5e-07,)"
    R"("p50_s":3.84e-07,"p95_s":4.992e-07,"p99_s":5.0944e-07,)"
    R"("p999_s":5.11744e-07,"max_s":6e-07,"buckets":[[256,1],[512,1]]}}}})";
constexpr const char* kScrubZero =
    R"({"scrub":{"sweeps":0,"stripes_scanned":0,"blocks_scanned":0,)"
    R"("bytes_scanned":0,"read_failures":0,"crc_mismatches":0,)"
    R"("latent_detected":0,"spot_checks":0,"spot_check_failures":0,)"
    R"("stripes_ranked":0,"repairs_attempted":0,"repairs_completed":0,)"
    R"("repairs_partial":0,"repairs_failed":0,"repairs_skipped":0,)"
    R"("blocks_repaired":0,"writebacks":0,"writeback_failures":0,)"
    R"("rate_limit_waits":0,"journal_intents":0,"journal_commits":0,)"
    R"("journal_store_failures":0,"journal_replayed":0,)"
    R"("journal_quarantined":0,"journal_pending":0,)"
    R"("latency":{"sweep":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,)"
    R"("p95_s":0,"p99_s":0,"p999_s":0,"max_s":0,"buckets":[]},)"
    R"("repair":{"count":0,"total_s":0,"mean_s":0,"p50_s":0,"p95_s":0,)"
    R"("p99_s":0,"p999_s":0,"max_s":0,"buckets":[]}}}})";

TEST(CodecMetrics, JsonIsPinned) {
  CodecMetrics m;
  EXPECT_EQ(m.to_json(), kCodecZero);
  fill(m);
  EXPECT_EQ(m.to_json(), kCodecJson);
}

TEST(SearchMetrics, JsonIsPinned) {
  SearchMetrics m;
  EXPECT_EQ(m.to_json(), kSearchZero);
  fill(m);
  EXPECT_EQ(m.to_json(), kSearchJson);
}

TEST(ServeMetrics, JsonIsPinned) {
  ServeMetrics m;
  EXPECT_EQ(m.to_json(), kServeZero);
  fill(m);
  EXPECT_EQ(m.to_json(), kServeJson);
}

TEST(ScrubMetrics, JsonIsPinned) {
  ScrubMetrics m;
  EXPECT_EQ(m.to_json(), kScrubZero);
  fill(m);
  EXPECT_EQ(m.to_json(), kScrubJson);
}

TEST(MetricSet, ResetReturnsEverySetToZero) {
  CodecMetrics codec;
  fill(codec);
  codec.reset();
  EXPECT_EQ(codec.to_json(), kCodecZero);
  SearchMetrics search;
  fill(search);
  search.reset();
  EXPECT_EQ(search.to_json(), kSearchZero);
  ServeMetrics serve;
  fill(serve);
  serve.reset();
  EXPECT_EQ(serve.to_json(), kServeZero);
  ScrubMetrics scrub;
  fill(scrub);
  scrub.reset();
  EXPECT_EQ(scrub.to_json(), kScrubZero);
}

TEST(MetricSet, ExportAndResetRaceRecorders) {
  // Four threads record while a fifth exports and resets the same set;
  // under TSan this proves both walks touch only atomics.
  ServeMetrics m;
  std::atomic<int> running{4};
  std::vector<std::jthread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&m, &running, t] {
      for (int i = 0; i < 20000; ++i) {
        m.requests.add();
        m.reads_failed.add(2);
        m.queue_seconds.record_nanos(100 + static_cast<std::uint64_t>(t));
        m.read_seconds.record_nanos(1u << (i % 20));
      }
      running.fetch_sub(1);
    });
  }
  std::size_t exports = 0;
  while (running.load() > 0 || exports == 0) {
    const std::string json = m.to_json();
    EXPECT_EQ(json.rfind("{\"serve\":{\"requests\":", 0), 0u) << json;
    EXPECT_EQ(json.substr(json.size() - 3), "}}}") << json;
    m.reset();
    ++exports;
  }
  recorders.clear();  // join
  m.reset();
  EXPECT_EQ(m.to_json(), kServeZero);
}

}  // namespace
}  // namespace ppm
