// Metrics primitives: counters, the log2 latency histogram, JSON export.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ppm
