// Shared plumbing of the end-to-end benchmark (ppm_bench): run arguments,
// sample statistics, the metric report, set-up timing and the per-layer
// probes every workload runs in a traced run.
//
// Timing is taken around public library calls from these files only;
// nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "codes/erasure_code.h"
#include "codes/sd_code.h"
#include "decode/scenario.h"
#include "parallel/thread_pool.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Cold set-ups timed per run: at least kSetupReps of them, repeated until
/// they have taken kSetupShare of the run's seconds (2 s of a 25 s run);
/// setup_s is their median.
constexpr int kSetupReps = 5;
constexpr double kSetupShare = 0.08;

/// A traced run splits its time evenly between an untraced and a traced
/// phase, so trace.overhead_frac compares two halves of one process.
constexpr double kTracedShare = 0.5;

/// trace.consistent holds when the traced p50 is within this share of the
/// untraced p50.
constexpr double kConsistencyTolerance = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  /// Flip one byte of the bench-side reference after set-up; the run must
  /// then report a mismatch.
  bool self_check = false;
  /// Directory for the run's temporary files (plan stores).
  std::filesystem::path scratch;
};

/// A set of measurements with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  double mean() const;
  /// Linearly interpolated q-quantile of the samples; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a run reports. `correct` turns false on any byte mismatch;
/// `failed` also counts rejected and incomplete operations.
struct Report {
  /// A traced run's result object holds the per-layer metrics only.
  bool traced = false;
  std::vector<Metric> metrics;
  /// Diagnostics printed beside the metrics but left out of the result
  /// object (sample counts, ungated percentiles).
  std::vector<Metric> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  /// Set (or overwrite) a per-layer metric.
  void set(const std::string& name, double value, const std::string& unit);
  /// Set an end-to-end metric; a diagnostic in a traced run.
  void end_to_end(const std::string& name, double value,
                  const std::string& unit) {
    if (traced) {
      note(name, value, unit);
    } else {
      set(name, value, unit);
    }
  }
  /// Add a diagnostic.
  void note(const std::string& name, double value, const std::string& unit);
  /// Value of a metric set earlier; 0 when absent.
  double get(const std::string& name) const;
};

/// The four workloads (closed_loop.cpp, serve.cpp). Each builds its inputs
/// from args.seed, measures for args.seconds and byte-verifies every op.
Report decode_large(const Args& args);
Report rebuild_batch(const Args& args);
Report encode_write(const Args& args);
Report serve_degraded(const Args& args);

/// A cold SD^{2,2}_{n,16} code: the coefficient cache is dropped first, so
/// every set-up pays certification as a fresh process would.
std::unique_ptr<ppm::SDCode> cold_sd_code(std::size_t n, unsigned w);

/// Run `make` repeatedly (see kSetupReps), report the median wall time as
/// setup_s and return the last result. Each call must do the workload's
/// whole cold set-up: coefficient certification, buffers, encode,
/// reference, warm-up.
template <class Make>
auto timed_setup(Make make, const Args& args, Report& report) {
  Samples times;
  decltype(make()) state;
  const auto first = Clock::now();
  while (times.size() < kSetupReps ||
         seconds_between(first, Clock::now()) < args.seconds * kSetupShare) {
    state = nullptr;  // release the previous set-up before timing the next
    const auto start = Clock::now();
    state = make();
    times.add(seconds_between(start, Clock::now()));
  }
  report.end_to_end("setup_s", times.median(), "s");
  return state;
}

/// Set trace.overhead_frac and trace.consistent from the p50 of the
/// untraced and traced phases.
void report_trace_overhead(double untraced_p50, double traced_p50,
                           Report& report);

/// Per-layer probes shared by every workload (layers.cpp).
///
/// gf.* and common.crc32_gbps: region kernels, memcpy and CRC32 at the
/// workload's field width and block size, cycling over a buffer the size
/// of what one decoding thread of the workload cycles through, so cache
/// residency matches.
void probe_kernels(unsigned w, std::size_t block_bytes,
                   std::size_t thread_working_set_bytes, std::uint64_t seed,
                   Report& report);

/// codec.* and plan_store.loads: replay `sequence` through Codec::plan_for
/// on a fresh codec with the default plan cache and an empty plan store,
/// classifying each fetch as hit, store load or build; then time builds
/// (no store) and store loads (populated store) on fresh codecs.
void probe_plan_fetch(const ppm::ErasureCode& code,
                      const std::vector<ppm::FailureScenario>& sequence,
                      const std::filesystem::path& store_dir, Report& report);

/// decode.* and parallel.*: decodes traced through the bench's own mirrors
/// of the library's executors, timing the public SubPlan::execute calls of
/// each lane and of the rest sub-plan.
class DecodeLayer {
 public:
  /// Mirror of Codec::decode -> CachedPlan::execute_placed: plan_for, the
  /// groups LPT-placed (hazard::place_lpt) onto lanes of `pool`, then
  /// rest() in the calling thread. Returns the call's wall seconds, or a
  /// negative value when the scenario has no plan.
  double decode_placed(ppm::Codec& codec, const ppm::FailureScenario& scenario,
                       std::uint8_t* const* blocks, std::size_t block_bytes,
                       ppm::ThreadPool& pool);

  /// Mirror of Codec::decode_batch: plan_for, then one task per stripe on
  /// `pool`, each running the groups and rest() serially.
  double decode_batch(ppm::Codec& codec, const ppm::FailureScenario& scenario,
                      const std::vector<std::uint8_t* const*>& stripes,
                      std::size_t block_bytes, ppm::ThreadPool& pool);

  /// Median wall seconds of the traced calls.
  double op_seconds() const { return op_s_.median(); }

  /// decode.* and parallel.*; decode.roofline_frac divides the achieved
  /// rate by `memcpy_gbps`.
  void report(double memcpy_gbps, Report& report) const;

 private:
  /// Record one call: lane busy seconds over a fan-out of `fanout_s`.
  void record(double op_s, double groups_s, double task_s, double rest_s,
              const std::vector<double>& lane_busy, double fanout_s,
              const ppm::DecodeStats& stats);

  Samples op_s_, groups_s_, task_s_, rest_s_, imbalance_, efficiency_;
  Samples mult_xors_, bytes_touched_;
};

/// The per-layer metrics of layers a closed-loop workload does not
/// exercise (survivor I/O, serving, open-loop generation), set to 0 so
/// every traced run reports the same names.
void report_unexercised_serving(Report& report);

}  // namespace e2e
