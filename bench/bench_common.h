// Shared harness for the figure-reproduction benchmarks.
//
// Every fig*_ binary prints the same series the corresponding paper figure
// plots, as aligned text tables (one row per x-axis point). Scale knobs,
// common to all binaries:
//
//   PPM_STRIPE_MB  stripe size in MiB (default 8; the paper used 32)
//   PPM_REPS       timed repetitions per data point (default 7; paper: 10)
//
// Every time printed is measured wall-clock time on real threads; compare()
// below defines the four decoders the figures time.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ppm.h"

namespace ppm::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::size_t stripe_mib() { return env_size("PPM_STRIPE_MB", 8); }
inline std::size_t reps() { return std::max<std::size_t>(env_size("PPM_REPS", 7), 1); }

/// Block size for a stripe of `blocks` blocks totalling ~stripe_mib(),
/// rounded down to a multiple of `symbol_bytes` (at least one symbol).
inline std::size_t block_bytes_for(std::size_t blocks, unsigned symbol_bytes) {
  std::size_t b = stripe_mib() * 1024 * 1024 / blocks;
  b -= b % symbol_bytes;
  return std::max<std::size_t>(b, symbol_bytes);
}

/// Median of a sample vector (destructive).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Decode throughput in MB/s given stripe bytes processed per decode.
inline double mb_per_s(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

/// One timed comparison on one stripe. Every number is measured wall-clock
/// time on real threads; each repetition runs the four decoders back to
/// back, so slow drift of the (virtualized) host cancels in the per-rep
/// ratios instead of landing in the comparison:
///
///   trad     TraditionalDecoder: the whole-matrix plan, normal sequence,
///            serial — the open-source SD decoder and the paper's baseline;
///   alg1@T   PpmDecoder: Algorithm 1, the O1 groups LPT-placed on T lanes
///            of ephemeral threads, then a serial H_rest;
///   whole@T  the same whole-matrix plan on T slices of
///            CachedPlan::execute_sliced over a T-thread pool (the
///            region-split parallelism of [36]-[38]);
///   ppm@T    Codec's partitioned plan (min(C3, C4)) on that executor.
///
/// Region times exclude planning, which is timed on its own: the
/// whole-matrix plan inside trad, the partitioned plan inside alg1.
struct ComparisonPoint {
  double plan_whole_seconds = 0;  ///< median whole-matrix planning time
  double plan_ppm_seconds = 0;    ///< median partitioned planning time
  double trad_seconds = 0;        ///< median region time of each decoder
  double alg1_seconds = 0;
  double whole_seconds = 0;
  double ppm_seconds = 0;
  // Improvement is the paper's ratio (t_trad - t_x) / t_x = t_trad / t_x
  // - 1: "210.81%" prints as 2.1081.
  double alg1_ratio = 1.0;   ///< median per-rep trad / alg1@T
  double whole_ratio = 1.0;  ///< median per-rep trad / whole@T
  double ppm_ratio = 1.0;    ///< median per-rep trad / ppm@T
  std::size_t p = 0;         ///< independent sub-matrices
  std::size_t c1 = 0;        ///< traditional mult_XORs
  std::size_t ppm_ops = 0;   ///< PPM mult_XORs (min(C3, C4))
  std::size_t redraws = 0;   ///< undecodable scenario redraws

  double alg1_improvement() const { return alg1_ratio - 1.0; }
  double whole_improvement() const { return whole_ratio - 1.0; }
  double ppm_improvement() const { return ppm_ratio - 1.0; }

  /// One JSON object of the point's medians (seconds) and op counts.
  std::string json() const {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "\"p\":%zu,\"c1\":%zu,\"ppm_ops\":%zu,"
                  "\"plan_whole_s\":%.6e,\"plan_ppm_s\":%.6e,"
                  "\"trad_s\":%.6e,\"alg1_s\":%.6e,\"whole_s\":%.6e,"
                  "\"ppm_s\":%.6e",
                  p, c1, ppm_ops, plan_whole_seconds, plan_ppm_seconds,
                  trad_seconds, alg1_seconds, whole_seconds, ppm_seconds);
    return buf;
  }
};

/// Run the four-way comparison of ComparisonPoint on scenario `g`, with T =
/// `threads`.
inline ComparisonPoint compare(const ErasureCode& code,
                               const GeneratedScenario& g, unsigned threads,
                               std::uint64_t seed, std::size_t block_bytes) {
  Stripe stripe(code, block_bytes);
  Rng rng(seed ^ 0xABCD);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block_bytes)) {
    std::fprintf(stderr, "encode failed for %s\n", code.name().c_str());
    std::exit(1);
  }
  const auto snap = stripe.snapshot();

  PpmOptions opts;
  opts.threads = threads;
  const PpmDecoder alg1(code, opts);
  const auto whole = CachedPlan::whole_matrix(code.parity_check(), g.scenario,
                                              SequencePolicy::kNormal);
  const auto ppm = CachedPlan::partitioned(code.parity_check(), g.scenario);
  if (!whole || !ppm) std::exit(2);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const auto slices =
      plan_slices(block_bytes, code.field().symbol_bytes(), threads);
  std::uint8_t* const* blocks = stripe.block_ptrs();

  // Each run erases the stripe, decodes it and returns the region time
  // and planning time.
  const auto run_trad = [&] {
    stripe.erase(g.scenario);
    const auto r = trad.decode(g.scenario, blocks, block_bytes,
                               SequencePolicy::kNormal);
    if (!r) std::exit(2);
    return std::pair{r->seconds - r->plan_seconds, r->plan_seconds};
  };
  const auto run_alg1 = [&] {
    stripe.erase(g.scenario);
    const auto r = alg1.decode(g.scenario, blocks, block_bytes);
    if (!r) std::exit(3);
    return std::pair{r->seconds - r->plan_seconds, r->plan_seconds};
  };
  const auto run_sliced = [&](const CachedPlan& plan) {
    stripe.erase(g.scenario);
    const Timer t;
    plan.execute_sliced({&blocks, 1}, block_bytes, slices,
                        pool ? &*pool : nullptr);
    return t.seconds();
  };

  // Untimed warm-up that touches every page, ramps the cores and checks
  // that each decoder restores the stripe.
  const auto check = [&](const char* who) {
    if (!stripe.equals(snap)) {
      std::fprintf(stderr, "%s: verification failed for %s\n", who,
                   code.name().c_str());
      std::exit(4);
    }
  };
  run_trad();
  check("trad");
  run_alg1();
  check("alg1");
  run_sliced(*whole);
  check("whole");
  run_sliced(*ppm);
  check("ppm");

  ComparisonPoint point;
  point.redraws = g.redraws;
  point.p = ppm->p();
  point.c1 = whole->cost();
  point.ppm_ops = ppm->cost();
  std::vector<double> plan_whole, plan_ppm, t_trad, t_alg1, t_whole, t_ppm;
  std::vector<double> r_alg1, r_whole, r_ppm;
  for (std::size_t rep = 0; rep < reps(); ++rep) {
    const auto [trad_s, trad_plan_s] = run_trad();
    const auto [alg1_s, alg1_plan_s] = run_alg1();
    const double whole_s = run_sliced(*whole);
    const double ppm_s = run_sliced(*ppm);
    plan_whole.push_back(trad_plan_s);
    plan_ppm.push_back(alg1_plan_s);
    t_trad.push_back(trad_s);
    t_alg1.push_back(alg1_s);
    t_whole.push_back(whole_s);
    t_ppm.push_back(ppm_s);
    r_alg1.push_back(trad_s / alg1_s);
    r_whole.push_back(trad_s / whole_s);
    r_ppm.push_back(trad_s / ppm_s);
  }
  check("ppm");
  point.plan_whole_seconds = median(std::move(plan_whole));
  point.plan_ppm_seconds = median(std::move(plan_ppm));
  point.trad_seconds = median(std::move(t_trad));
  point.alg1_seconds = median(std::move(t_alg1));
  point.whole_seconds = median(std::move(t_whole));
  point.ppm_seconds = median(std::move(t_ppm));
  point.alg1_ratio = median(std::move(r_alg1));
  point.whole_ratio = median(std::move(r_whole));
  point.ppm_ratio = median(std::move(r_ppm));
  return point;
}

/// compare() on the worst-case SD/PMDS scenario of m disks + s sectors.
inline ComparisonPoint compare_sd(const ErasureCode& code, std::size_t m,
                                  std::size_t s, std::size_t z,
                                  unsigned threads, std::uint64_t seed,
                                  std::size_t block_bytes) {
  ScenarioGenerator gen(seed);
  return compare(code, gen.sd_worst_case(code, m, s, z), threads, seed,
                 block_bytes);
}

/// Running average and range of a series of improvements.
struct Summary {
  double sum = 0;
  double lo = 1e9;
  double hi = -1e9;
  std::size_t count = 0;

  void add(double v) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ++count;
  }
  /// "avg=..% range=[..%, ..%]"
  std::string str() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "avg=%.2f%% range=[%.2f%%, %.2f%%]",
                  count == 0 ? 0.0 : 100 * sum / count, 100 * lo, 100 * hi);
    return buf;
  }
};

/// Print the standard bench banner.
inline void banner(const char* fig, const char* what) {
  std::printf("== %s: %s ==\n", fig, what);
  std::printf("stripe=%zuMiB reps=%zu isa=%s cores=%u  (medians of measured "
              "wall-clock time; see EXPERIMENTS.md)\n\n",
              stripe_mib(), reps(), isa_name(detect_isa()),
              hardware_threads());
}

}  // namespace ppm::bench
