// ppm_bench: the end-to-end benchmark of the PPM library.
//
//   ppm_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--self-check]
//
// Workloads: decode-large, rebuild-batch, encode-write, serve-degraded
// (see README.md for what each runs and why). Prints one
// "<workload> <metric> <value> <unit>" row per metric and diagnostic, then
// as its last line one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// An untraced run reports the end-to-end metrics, a traced run
// (--trace 1) the per-layer ones. Exits 1 when any op's output did not
// match the reference, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>

#include "codes/coeff_search.h"
#include "harness.h"

namespace e2e {

double Samples::sum() const {
  double s = 0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  notes.push_back({name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::unique_ptr<ppm::SDCode> cold_sd_code(std::size_t n, unsigned w) {
  ppm::clear_sd_coefficient_cache();
  return std::make_unique<ppm::SDCode>(n, 16, 2, 2, w);
}

void report_trace_overhead(double untraced_p50, double traced_p50,
                           Report& report) {
  const double overhead =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0;
  const bool consistent = std::abs(overhead) <= kConsistencyTolerance;
  report.set("trace.overhead_frac", overhead, "ratio");
  report.set("trace.consistent", consistent ? 1 : 0, "bool");
  if (!consistent) std::fprintf(stderr, "trace.consistent=false\n");
}

}  // namespace e2e

namespace {

using Workload = e2e::Report (*)(const e2e::Args&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> all = {
      {"decode-large", e2e::decode_large},
      {"rebuild-batch", e2e::rebuild_batch},
      {"encode-write", e2e::encode_write},
      {"serve-degraded", e2e::serve_degraded},
  };
  return all;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ppm_bench: %s\nusage: ppm_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--self-check]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

e2e::Args parse(int argc, char** argv) {
  e2e::Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      if (workloads().count(value) == 0) usage("unknown workload");
      args.workload = value;
    } else if (flag == "--seed") {
      const auto r = std::from_chars(value.data(), end, args.seed);
      if (r.ec != std::errc() || r.ptr != end) usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto r = std::from_chars(value.data(), end, args.seconds);
      if (r.ec != std::errc() || r.ptr != end || !(args.seconds > 0) ||
          args.seconds > 600) {
        usage("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args = parse(argc, argv);
  // Temporary files live beside the executable, inside the build tree.
  args.scratch = std::filesystem::path(argv[0]).parent_path() / "scratch" /
                 (args.workload + "-" + std::to_string(getpid()));
  e2e::Report report;
  try {
    std::filesystem::create_directories(args.scratch);
    report = workloads().at(args.workload)(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppm_bench: %s\n", e.what());
    std::filesystem::remove_all(args.scratch);
    return 1;
  }
  std::filesystem::remove_all(args.scratch);

  for (const auto* rows : {&report.metrics, &report.notes}) {
    for (const e2e::Metric& m : *rows) {
      std::printf("%s %s %s %s\n", args.workload.c_str(), m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "ppm_bench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (!report.correct) {
    std::fprintf(stderr, "ppm_bench: %s: output mismatch\n",
                 args.workload.c_str());
    return 1;
  }
  return 0;
}
