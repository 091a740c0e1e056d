#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace ppm {

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 ",", key, value);
  out += buf;
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g,", key, value);
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

Counter::Counter(MetricSet* set, std::string_view path) {
  set->entries_.push_back({path, this, nullptr});
}

LatencyHistogram::LatencyHistogram(MetricSet* set, std::string_view path) {
  set->entries_.push_back({path, nullptr, this});
}

void MetricSet::reset() {
  for (const Entry& e : entries_) {
    if (e.counter != nullptr) {
      e.counter->reset();
    } else {
      e.histogram->reset();
    }
  }
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  // Path prefix of the objects open around the cursor ("serve.latency.");
  // `first` is true while the innermost of them is still empty.
  std::string_view open;
  bool first = true;
  const auto append_key = [&](std::string_view key) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
  };
  for (const Entry& e : entries_) {
    const std::size_t leaf = e.path.rfind('.') + 1;  // 0 when no dot
    const std::string_view parent = e.path.substr(0, leaf);
    // Keep the open objects `parent` shares, whole segments only; close
    // the rest, then open the segments `parent` adds.
    std::size_t keep = 0;
    for (std::size_t i = 0;
         i < open.size() && i < parent.size() && open[i] == parent[i]; ++i) {
      if (open[i] == '.') keep = i + 1;
    }
    for (std::size_t i = keep; i < open.size(); ++i) {
      if (open[i] == '.') {
        out += '}';
        first = false;
      }
    }
    for (std::size_t i = keep; i < parent.size();) {
      const std::size_t dot = parent.find('.', i);
      append_key(parent.substr(i, dot - i));
      out += '{';
      first = true;
      i = dot + 1;
    }
    open = parent;
    append_key(e.path.substr(leaf));
    if (e.counter != nullptr) {
      out += std::to_string(e.counter->value());
    } else {
      e.histogram->append_json(out);
    }
    first = false;
  }
  out.append(
      static_cast<std::size_t>(std::count(open.begin(), open.end(), '.')) + 1,
      '}');
  return out;
}

SearchMetrics& search_metrics() {
  static SearchMetrics metrics;
  return metrics;
}

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics;
  return metrics;
}

ScrubMetrics& scrub_metrics() {
  static ScrubMetrics metrics;
  return metrics;
}

}  // namespace ppm
