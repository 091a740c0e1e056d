// ppm_cli — command-line front end for the PPM library.
//
//   ppm_cli info     --code <family> [params]      code geometry + H census
//   ppm_cli costs    --code <family> [params]      C1..C4 + partition shape
//   ppm_cli bench    --code <family> [params]      traditional vs PPM vs Codec
//                                                  wall-clock timing
//   ppm_cli batch    --code <family> [params]      Codec batch decode + metrics JSON
//   ppm_cli selftest --code <family> [params]      encode/erase/decode/verify
//   ppm_cli verify   --code <family> [params]      static plan verification
//                    [--scenario 1,5,9] [--sweep <disks>]
//   ppm_cli analyze  --code <family> [params]      concurrency-hazard proof +
//                    [--scenario 1,5,9] [--sweep <disks>]   critical-path bounds
//                    [--optimize 1]   proof-carrying XOR-schedule superoptimizer
//   ppm_cli store {build|ls|check|gc} --dir <dir>  persistent plan store:
//                    [--code <family> [params]] [--sweep <disks>]
//                    build/list/re-verify/garbage-collect plan records
//   ppm_cli chaos    --code <family> [params]      seeded fault-injection
//                    [--sweep <disks>] [--seed S] [--rounds R]   campaign
//                    [--permanent P] [--transient P] [--corrupt P]   against
//                    [--retries N]   the resilient pipeline
//   ppm_cli serve    --code <family> [params]      decode-serving campaign:
//                    [--sweep <disks>] [--seed S] [--rounds R]   async fetch +
//                    [--requests N] [--straggle P] [--delay-us U]  hedged reads
//                    [--serial 0|1] [--assert-ratio P] [--assert-floor-us U]
//                    [--scrub-rate-kbps K]   + overlapped group solves vs the
//                    serial resilient baseline, optionally beside a
//                    rate-limited background scrubber
//   ppm_cli scrub    --code <family> [params]      continuous-scrub campaign:
//                    [--stripes N] [--epochs E] [--seed S]   seeded latent-
//                    [--permanent P] [--corrupt P]   error arrivals, sweep +
//                    [--rate-kbps K] [--retries N] [--spot-every N]  risk-
//                    [--dir <journal>] [--drill 1] [--metrics 1]   ranked
//                    repair + durable journal (see ROBUSTNESS.md)
//   ppm_cli search {certify|best|ls|check|gc}      coefficient certification:
//                    [--n N --r R --m M --s S --w W]   exhaustively prove a
//                    [--coeffs a,b,...] [--dir <d>]    tuple (certify), search
//                    [--candidates N] [--certify-budget N] [--seed S]  for the
//                    [--plan-budget N] [--exact-limit N] [--classes N] Pareto-
//                    [--allow-deficient 1] [--metrics 1]   best one (best), or
//                    re-prove/list/gc the persistent certificate store
//
// Families and their parameters (defaults in parentheses):
//   sd, pmds : --n (8) --r (16) --m (2) --s (2) [--w auto] [--z 1]
//   lrc      : --k (12) --l (3) --g (2)
//   xorbas   : --k (10) --l (2) --g (4)
//   rs       : --k (10) --m (4)
//   crs      : --k (10) --m (4)
//   evenodd, rdp, star : --p (7)
// Common: --block <bytes> (65536), --reps (5), --threads (4), --faults
// (family worst case) — number of whole-disk failures for the generic
// generator.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "ppm.h"

using namespace ppm;

namespace {

struct Args {
  std::string command;
  std::string subcommand;  // e.g. "build" in `ppm_cli store build ...`
  std::map<std::string, std::string> flags;

  std::size_t get(const std::string& key, std::size_t fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return std::strtoull(it->second.c_str(), nullptr, 10);
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  int first_flag = 2;
  if (argc > 2 && argv[2][0] != '-') {
    args.subcommand = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    if (key[0] == '-' && key[1] == '-') {
      args.flags[key + 2] = argv[i + 1];
    }
  }
  return args;
}

std::unique_ptr<ErasureCode> make_code(const Args& args) {
  const std::string family = args.get("code", "sd");
  if (family == "sd" || family == "pmds") {
    const std::size_t n = args.get("n", 8);
    const std::size_t r = args.get("r", 16);
    const std::size_t m = args.get("m", 2);
    const std::size_t s = args.get("s", 2);
    const unsigned w = static_cast<unsigned>(
        args.get("w", SDCode::recommended_width(n, r)));
    if (family == "sd") return std::make_unique<SDCode>(n, r, m, s, w);
    return std::make_unique<PMDSCode>(n, r, m, s, w);
  }
  if (family == "lrc") {
    return std::make_unique<LRCCode>(args.get("k", 12), args.get("l", 3),
                                     args.get("g", 2), 8);
  }
  if (family == "xorbas") {
    return std::make_unique<XorbasLRCCode>(args.get("k", 10),
                                           args.get("l", 2),
                                           args.get("g", 4), 8);
  }
  if (family == "rs") {
    return std::make_unique<RSCode>(args.get("k", 10), args.get("m", 4), 8);
  }
  if (family == "crs") {
    return std::make_unique<CRSCode>(args.get("k", 10), args.get("m", 4), 8);
  }
  if (family == "star") {
    return std::make_unique<StarCode>(args.get("p", 7), 8);
  }
  if (family == "evenodd") {
    return std::make_unique<EvenOddCode>(args.get("p", 7), 8);
  }
  if (family == "rdp") {
    return std::make_unique<RDPCode>(args.get("p", 7), 8);
  }
  throw std::invalid_argument("unknown --code family: " + family);
}

// Family-appropriate worst-case (or --faults whole disks) scenario.
FailureScenario make_scenario(const ErasureCode& code, const Args& args,
                              ScenarioGenerator& gen) {
  const std::string family = args.get("code", "sd");
  if (args.flags.contains("faults")) {
    return gen.disk_failures(code, args.get("faults", 1)).scenario;
  }
  if (family == "sd" || family == "pmds") {
    return gen
        .sd_worst_case(code, args.get("m", 2), args.get("s", 2),
                       args.get("z", 1))
        .scenario;
  }
  if (family == "lrc") {
    const auto& lrc = dynamic_cast<const LRCCode&>(code);
    return gen.lrc_failures(lrc, lrc.l(), 1).scenario;
  }
  if (family == "rs") {
    const auto& rs = dynamic_cast<const RSCode&>(code);
    return gen.rs_failures(rs, rs.m()).scenario;
  }
  // Generic fallback: tolerance-respecting whole-disk failures.
  const std::size_t disks = family == "crs" ? args.get("m", 4)
                            : family == "star" ? std::size_t{3}
                                               : std::size_t{2};  // evenodd/rdp
  return gen.disk_failures(code, std::min(disks, code.disks() - 1)).scenario;
}

int cmd_info(const ErasureCode& code) {
  const Matrix& h = code.parity_check();
  std::printf("code:          %s\n", code.name().c_str());
  std::printf("geometry:      %zu disks x %zu rows = %zu blocks\n",
              code.disks(), code.rows(), code.total_blocks());
  std::printf("data/parity:   %zu / %zu\n", code.data_block_count(),
              code.parity_blocks().size());
  std::printf("H:             %zu x %zu, %zu nonzeros (density %.3f)\n",
              h.rows(), h.cols(), h.nonzeros(),
              static_cast<double>(h.nonzeros()) / (h.rows() * h.cols()));
  std::printf("field:         GF(2^%u)\n", code.field().w());
  std::printf("check rank:    %zu\n", h.rank());
  // Parity arity census — symmetric vs asymmetric at a glance.
  std::map<std::size_t, std::size_t> arity;
  for (std::size_t row = 0; row < h.rows(); ++row) {
    std::size_t nz = 0;
    for (std::size_t c = 0; c < h.cols(); ++c) nz += (h(row, c) != 0);
    ++arity[nz];
  }
  std::printf("row arities:  ");
  for (const auto& [a, count] : arity) std::printf(" %zux%zu", count, a);
  std::printf("  -> %s parity\n",
              arity.size() > 1 ? "ASYMMETRIC" : "symmetric");
  return 0;
}

int cmd_costs(const ErasureCode& code, const Args& args) {
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);
  std::printf("scenario: %zu faulty blocks\n", sc.count());
  const auto costs = analyze_costs(code, sc);
  if (!costs) {
    std::fprintf(stderr, "scenario undecodable\n");
    return 1;
  }
  std::printf("C1=%zu C2=%zu C3=%zu C4=%zu  p=%zu  ppm=%zu (%.2f%% below "
              "C1)\n",
              costs->c1, costs->c2, costs->c3, costs->c4, costs->p,
              costs->ppm_best(),
              100.0 * (costs->c1 - costs->ppm_best()) / costs->c1);
  return 0;
}

int cmd_bench(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  const std::size_t reps = args.get("reps", 5);
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);

  Stripe stripe(code, block);
  Rng rng(args.get("seed", 1) + 1);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) return 1;
  const auto snap = stripe.snapshot();

  const auto threads = static_cast<unsigned>(args.get("threads", 4));
  PpmOptions opts;
  opts.threads = threads;
  const PpmDecoder ppm_dec(code, opts);
  Codec codec(code, Codec::Options{.threads = threads});

  // Warm-up; it also leaves the codec's plan cached.
  stripe.erase(sc);
  if (!trad.decode(sc, stripe.block_ptrs(), block)) return 1;
  stripe.erase(sc);
  if (!codec.decode(sc, stripe.block_ptrs(), block)) return 1;

  std::vector<double> tt;
  std::vector<double> tp;
  std::vector<double> tc;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stripe.erase(sc);
    const auto tr = trad.decode(sc, stripe.block_ptrs(), block);
    if (!tr) return 1;
    tt.push_back(tr->seconds);
    stripe.erase(sc);
    const auto pr = ppm_dec.decode(sc, stripe.block_ptrs(), block);
    if (!pr) return 1;
    tp.push_back(pr->seconds);
    stripe.erase(sc);
    const Timer timer;
    if (!codec.decode(sc, stripe.block_ptrs(), block)) return 1;
    tc.push_back(timer.seconds());
  }
  if (!stripe.equals(snap)) {
    std::fprintf(stderr, "VERIFICATION FAILED\n");
    return 1;
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double t1 = median(tt);
  const double t2 = median(tp);
  const double t3 = median(tc);
  std::printf("traditional:     %8.3f ms\n", t1 * 1e3);
  std::printf("PPM Algorithm 1: %8.3f ms  (%+.2f%%, T=%u lanes)\n", t2 * 1e3,
              100 * (t1 / t2 - 1), threads);
  std::printf("Codec:           %8.3f ms  (%+.2f%%, T=%u, plan cached)\n",
              t3 * 1e3, 100 * (t1 / t3 - 1), threads);
  return 0;
}

// Batch decode through the Codec (the disk-rebuild serving path) and emit
// the codec's metrics as one JSON object on stdout — plan-cache hits /
// misses / evictions, mult_XOR volume, and latency histograms.
int cmd_batch(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  const std::size_t batch = args.get("stripes", 64);
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);

  const TraditionalDecoder trad(code);
  std::vector<std::unique_ptr<Stripe>> stripes;
  std::vector<std::vector<std::uint8_t>> snaps;
  std::vector<std::uint8_t* const*> ptrs;
  Rng rng(args.get("seed", 1) + 3);
  for (std::size_t i = 0; i < batch; ++i) {
    stripes.push_back(std::make_unique<Stripe>(code, block));
    stripes.back()->fill_data(rng);
    if (!trad.encode(stripes.back()->block_ptrs(), block)) return 1;
    snaps.push_back(stripes.back()->snapshot());
    stripes.back()->erase(sc);
    ptrs.push_back(stripes.back()->block_ptrs());
  }

  Codec::Options copts;
  copts.threads = static_cast<unsigned>(args.get("threads", 4));
  copts.cache_capacity = args.get("capacity", 64);
  copts.cache_shards = args.get("shards", 0);
  Codec codec(code, copts);
  const auto result = codec.decode_batch(sc, ptrs, block);
  if (!result.has_value()) {
    std::fprintf(stderr, "scenario undecodable\n");
    return 1;
  }
  for (std::size_t i = 0; i < batch; ++i) {
    if (!stripes[i]->equals(snaps[i])) {
      std::fprintf(stderr, "VERIFICATION FAILED: stripe %zu\n", i);
      return 1;
    }
  }
  std::fprintf(stderr,
               "%zu stripes x %zuKiB decoded in %.3f ms (plan %.3f ms, "
               "%u threads, cache %zu/%zu in %zu shards)\n",
               result->stripes, block / 1024, result->seconds * 1e3,
               result->plan_seconds * 1e3, copts.threads, codec.cache_size(),
               codec.cache_capacity(), codec.cache_shards());
  std::printf("%s\n", codec.metrics_json().c_str());
  return 0;
}

// Parse "1,5,9" into a scenario.
FailureScenario parse_scenario_spec(const std::string& spec) {
  std::vector<std::size_t> faulty;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    faulty.push_back(std::strtoull(p, &end, 10));
    if (end == p) throw std::invalid_argument("bad --scenario: " + spec);
    p = *end == ',' ? end + 1 : end;
  }
  return FailureScenario(faulty);
}

// Statically verify the plan for one scenario: the planverify pass over
// the cached plan, plus — for every sub-plan whose applied matrix is
// binary — an incremental XOR schedule planned and symbolically replayed.
// Returns all violations found (empty = sound).
std::vector<planverify::Violation> verify_one(Codec& codec,
                                              const ErasureCode& code,
                                              const FailureScenario& sc,
                                              bool* undecodable,
                                              std::size_t* schedules) {
  *undecodable = false;
  const auto plan = codec.plan_for(sc);
  if (plan == nullptr) {
    *undecodable = true;
    return {};
  }
  auto verdict = planverify::verify_plan(code, sc, *plan);
  const auto check_schedule = [&](const SubPlan& sub) {
    const Matrix& applied =
        sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
    const auto sched = plan_xor_schedule(applied);
    if (!sched.has_value()) return;  // non-binary system: no XOR schedule
    ++*schedules;
    auto xv = planverify::verify_xor_schedule(applied, *sched);
    verdict.violations.insert(verdict.violations.end(),
                              xv.violations.begin(), xv.violations.end());
  };
  for (const SubPlan& sub : plan->groups()) check_schedule(sub);
  if (plan->rest().has_value()) check_schedule(*plan->rest());
  return std::move(verdict.violations);
}

// The scenario selection shared by verify, analyze, store, chaos and
// serve: an explicit --scenario, every combination of up to --sweep
// whole-disk failures, or the family worst case.
std::vector<FailureScenario> selected_scenarios(const ErasureCode& code,
                                                const Args& args) {
  if (args.flags.contains("sweep")) {
    return campaign::disk_sweep(code, args.get("sweep", 1));
  }
  if (args.flags.contains("scenario")) {
    return {parse_scenario_spec(args.get("scenario", std::string{}))};
  }
  ScenarioGenerator gen(args.get("seed", 1));
  return {make_scenario(code, args, gen)};
}

using campaign::scenario_ids;

// Offline plan-space vetting for operators: verify the plan of one
// scenario (--scenario or the family default), or of every combination of
// up to --sweep whole-disk failures. Pass/fail report on stderr; the
// Violation list as JSON on stdout when verification fails.
int cmd_verify(const ErasureCode& code, const Args& args) {
  Codec codec(code);
  std::size_t checked = 0;
  std::size_t undecodable_count = 0;
  std::size_t schedules = 0;
  std::vector<planverify::Violation> violations;

  for (const FailureScenario& sc : selected_scenarios(code, args)) {
    bool undecodable = false;
    auto v = verify_one(codec, code, sc, &undecodable, &schedules);
    ++checked;
    if (undecodable) {
      ++undecodable_count;
      continue;
    }
    if (!v.empty()) {
      std::fprintf(stderr, "FAIL: scenario [%s]: %zu violation(s)\n",
                   scenario_ids(sc).c_str(), v.size());
      violations.insert(violations.end(), v.begin(), v.end());
    }
  }

  std::fprintf(stderr,
               "%s: %zu scenario(s) verified (%zu undecodable skipped), "
               "%zu XOR schedule(s) replayed\n",
               code.name().c_str(), checked - undecodable_count,
               undecodable_count, schedules);
  if (!violations.empty()) {
    std::printf("%s\n", planverify::to_json(violations).c_str());
    std::fprintf(stderr, "FAIL: %zu violation(s)\n", violations.size());
    return 1;
  }
  if (checked == undecodable_count && checked > 0 &&
      !args.flags.contains("sweep")) {
    std::fprintf(stderr, "FAIL: scenario undecodable\n");
    return 2;
  }
  std::fprintf(stderr, "PASS\n");
  return 0;
}

// Static concurrency-hazard analysis: prove every parallel region the
// decoders would run for a scenario race-free under all interleavings and
// report the plan's parallelism profile (critical path, per-level width,
// max-speedup bound). Covers the PPM group fan-out (analyze_plan), every
// binary sub-system's XOR schedule as a parallel program over target
// units (analyze_schedule), and the geometry of --threads region slices
// of --block bytes over the whole-matrix plan, as
// CachedPlan::execute_sliced would run them (analyze_slices).
// With --optimize 1, the proof-carrying superoptimizer (ppm::xoropt) runs
// over every binary sub-system's greedy schedule, the CLI re-proves each
// optimized schedule independently, and the sweep JSON gains
// naive/greedy/optimized op totals plus accept/reject counts. Profile
// JSON on stdout; violations JSON on stdout with exit 1.
int cmd_analyze(const ErasureCode& code, const Args& args) {
  const bool optimize = args.get("optimize", 0) != 0;
  Codec codec(code);
  const std::size_t block = args.get("block", 65536);
  const unsigned threads = static_cast<unsigned>(args.get("threads", 4));
  const unsigned sym = code.field().symbol_bytes();
  const Matrix& h = code.parity_check();

  std::size_t checked = 0;
  std::size_t undecodable_count = 0;
  std::size_t schedules = 0;
  std::size_t slice_sets = 0;
  std::size_t work_sum = 0;
  std::size_t critical_sum = 0;
  std::size_t placed_sum = 0;      // LPT makespan on --threads lanes
  std::size_t roundrobin_sum = 0;  // Algorithm-1 makespan, same lanes
  std::size_t max_width = 0;
  double best_speedup = 1.0;
  std::size_t opt_naive_sum = 0;      // Σ u(M) over optimized sub-systems
  std::size_t opt_greedy_sum = 0;     // Σ greedy schedule cost, same
  std::size_t opt_optimized_sum = 0;  // Σ proven optimized cost, same
  std::size_t opt_accepted = 0;
  std::size_t opt_rejected = 0;
  std::size_t opt_below_naive = 0;  // schedules strictly under u(M)
  std::string profile_json;  // per-scenario profile (last scenario wins)
  std::vector<planverify::Violation> violations;

  for (const FailureScenario& sc : selected_scenarios(code, args)) {
    ++checked;
    const auto plan = codec.plan_for(sc);
    if (plan == nullptr) {
      ++undecodable_count;
      continue;
    }
    const auto take = [&](const hazard::Analysis& a, const char* what) {
      if (!a.ok()) {
        std::fprintf(stderr, "FAIL: scenario [%s] %s: %zu violation(s)\n",
                     scenario_ids(sc).c_str(), what, a.violations.size());
        violations.insert(violations.end(), a.violations.begin(),
                          a.violations.end());
      }
    };

    // 1. The PPM group fan-out: every plan carries its hazard/cost
    //    profile from birth (Codec::build_plan analyzes it once), so read
    //    profile() instead of re-running the analyzer; only a hazardous
    //    plan is re-analyzed, to recover the violation details.
    const PlanProfile& prof = plan->profile();
    if (!prof.hazard_free) take(hazard::analyze_plan(*plan), "plan");
    work_sum += prof.work;
    critical_sum += prof.critical_path;
    max_width = std::max(max_width, prof.max_width);
    best_speedup = std::max(best_speedup, prof.speedup_bound());

    // Placement the executor would run on --threads lanes, vs. the
    // Algorithm-1 baseline — both in exact mult_XOR units (group-phase
    // makespan + the rest tail that follows every lane).
    std::vector<std::size_t> group_work;
    group_work.reserve(plan->p());
    for (const SubPlan& sub : plan->groups()) {
      group_work.push_back(sub.cost());
    }
    const std::size_t rest_cost =
        plan->rest().has_value() ? plan->rest()->cost() : 0;
    const std::size_t placed =
        hazard::place_lpt(group_work, threads).makespan + rest_cost;
    const std::size_t roundrobin =
        hazard::place_round_robin(group_work, threads).makespan + rest_cost;
    placed_sum += placed;
    roundrobin_sum += roundrobin;

    // 2. Every binary sub-system's XOR schedule, as a parallel program.
    const auto check_schedule = [&](const SubPlan& sub) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto sched = plan_xor_schedule(applied);
      if (!sched.has_value()) return;  // non-binary system: no XOR schedule
      ++schedules;
      take(hazard::analyze_schedule(*sched, applied), "xor schedule");
      if (!optimize) return;
      // Superoptimize and re-prove from the CLI's side — independent of
      // the gate inside xoropt::optimize, so a bug in the accept path
      // cannot certify its own output.
      const auto result = xoropt::optimize(applied, *sched);
      opt_naive_sum += sched->naive_ops;
      opt_greedy_sum += sched->cost();
      opt_optimized_sum += result.schedule.cost();
      opt_accepted += result.stats.rewrites_accepted;
      opt_rejected += result.stats.rewrites_rejected;
      if (result.schedule.cost() < result.schedule.naive_ops) {
        ++opt_below_naive;
      }
      const auto proof = xoropt::prove(applied, result.schedule);
      if (!proof.empty()) {
        std::fprintf(stderr,
                     "FAIL: scenario [%s] optimized xor schedule: "
                     "%zu violation(s)\n",
                     scenario_ids(sc).c_str(), proof.size());
        violations.insert(violations.end(), proof.begin(), proof.end());
      }
    };
    for (const SubPlan& sub : plan->groups()) check_schedule(sub);
    if (plan->rest().has_value()) check_schedule(*plan->rest());

    // 3. The slice geometry of the whole-matrix plan on --threads slices.
    const auto whole =
        CachedPlan::whole_matrix(h, sc, SequencePolicy::kMatrixFirst);
    if (whole.has_value()) {
      ++slice_sets;
      const auto ranges = plan_slices(block, sym, threads);
      take(hazard::analyze_slices(*whole->rest(), ranges, block, sym),
           "slices");
    }

    std::string widths;
    for (const std::size_t w : prof.level_width) {
      widths += (widths.empty() ? "" : ",") + std::to_string(w);
    }
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\":[%s],\"units\":%zu,"
                  "\"work_mult_xors\":%zu,\"critical_path_mult_xors\":%zu,"
                  "\"level_width\":[%s],\"max_width\":%zu,"
                  "\"max_speedup_bound\":%.4f,\"lanes\":%u,"
                  "\"placed_makespan_mult_xors\":%zu,"
                  "\"roundrobin_makespan_mult_xors\":%zu}",
                  scenario_ids(sc).c_str(),
                  prof.level_width.empty()
                      ? std::size_t{0}
                      : std::accumulate(prof.level_width.begin(),
                                        prof.level_width.end(),
                                        std::size_t{0}),
                  prof.work, prof.critical_path, widths.c_str(),
                  prof.max_width, prof.speedup_bound(), threads, placed,
                  roundrobin);
    profile_json = buf;
    if (!args.flags.contains("sweep")) {
      std::fprintf(stderr,
                   "scenario [%s]: work=%zu critical_path=%zu "
                   "width=%zu speedup<=%.2f placed=%zu roundrobin=%zu "
                   "(T=%u)\n",
                   scenario_ids(sc).c_str(), prof.work, prof.critical_path,
                   prof.max_width, prof.speedup_bound(), placed, roundrobin,
                   threads);
    }
  }

  std::fprintf(stderr,
               "%s: %zu scenario(s) analyzed (%zu undecodable skipped), "
               "%zu XOR schedule(s), %zu slice fan-out(s)\n",
               code.name().c_str(), checked - undecodable_count,
               undecodable_count, schedules, slice_sets);
  if (optimize) {
    std::fprintf(stderr,
                 "xoropt: naive=%zu greedy=%zu optimized=%zu accepted=%zu "
                 "rejected=%zu below_naive=%zu\n",
                 opt_naive_sum, opt_greedy_sum, opt_optimized_sum,
                 opt_accepted, opt_rejected, opt_below_naive);
  }
  if (!violations.empty()) {
    std::printf("%s\n", planverify::to_json(violations).c_str());
    std::fprintf(stderr, "FAIL: %zu violation(s)\n", violations.size());
    return 1;
  }
  if (checked == undecodable_count && checked > 0 &&
      !args.flags.contains("sweep")) {
    std::fprintf(stderr, "FAIL: scenario undecodable\n");
    return 2;
  }
  if (args.flags.contains("sweep")) {
    std::string xoropt_json;
    if (optimize) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\"xoropt\":{\"naive_ops\":%zu,\"greedy_ops\":%zu,"
                    "\"optimized_ops\":%zu,\"accepted\":%zu,"
                    "\"rejected\":%zu,\"below_naive\":%zu}",
                    opt_naive_sum, opt_greedy_sum, opt_optimized_sum,
                    opt_accepted, opt_rejected, opt_below_naive);
      xoropt_json = buf;
    }
    std::printf("{\"scenarios\":%zu,\"undecodable\":%zu,\"schedules\":%zu,"
                "\"work_mult_xors\":%zu,\"critical_path_mult_xors\":%zu,"
                "\"max_width\":%zu,\"best_speedup_bound\":%.4f,"
                "\"lanes\":%u,\"placed_makespan_mult_xors\":%zu,"
                "\"roundrobin_makespan_mult_xors\":%zu%s}\n",
                checked, undecodable_count, schedules, work_sum, critical_sum,
                max_width, best_speedup, threads, placed_sum, roundrobin_sum,
                xoropt_json.c_str());
  } else if (!profile_json.empty()) {
    std::printf("%s\n", profile_json.c_str());
  }
  std::fprintf(stderr, "PASS: hazard-free\n");
  return 0;
}

// --percent flags: `key`'s value as a probability, or `fallback`.
double probability(const Args& args, const std::string& key,
                   double fallback) {
  return args.flags.contains(key)
             ? static_cast<double>(args.get(key, 0)) / 100.0
             : fallback;
}

void print_verdict(const campaign::Verdict& verdict) {
  for (const std::string& what : verdict.failures) {
    std::fprintf(stderr, "VERIFY FAIL: %s\n", what.c_str());
  }
}

// Chaos campaign (campaign::run_chaos): outcome histogram JSON on stdout;
// exit 1 on any expectation failure.
int cmd_chaos(const ErasureCode& code, const Args& args) {
  campaign::ChaosOptions opts;
  opts.scenarios = selected_scenarios(code, args);
  opts.block_bytes = args.get("block", opts.block_bytes);
  opts.rounds = args.get("rounds", opts.rounds);
  opts.retries = args.get("retries", opts.retries);
  opts.seed = args.get("seed", opts.seed);
  opts.permanent = probability(args, "permanent", opts.permanent);
  opts.transient = probability(args, "transient", opts.transient);
  opts.corrupt = probability(args, "corrupt", opts.corrupt);
  const campaign::ChaosReport report = campaign::run_chaos(code, opts);
  print_verdict(report.verdict);
  std::fprintf(stderr,
               "%s: %zu chaos run(s): %zu complete, %zu partial, %zu "
               "unrecovered, %zu verify failure(s)\n",
               code.name().c_str(), report.runs, report.complete,
               report.partial, report.none, report.verdict.failures.size());
  std::printf("%s\n", report.to_json().c_str());
  return report.verdict.ok() ? 0 : 1;
}

// Serving campaign (campaign::run_serve): per-phase JSON on stdout; exit
// 1 on any verify failure. With --assert-ratio R, also requires hedged p99
// <= max(R% of clean p99, --assert-floor-us) and, when the serial phase
// ran, hedged p99 strictly below serial p99.
int cmd_serve(const ErasureCode& code, const Args& args) {
  campaign::ServeOptions opts;
  opts.scenarios = selected_scenarios(code, args);
  opts.block_bytes = args.get("block", opts.block_bytes);
  opts.rounds = args.get("rounds", opts.rounds);
  opts.requests = std::max<std::size_t>(1, args.get("requests", opts.requests));
  opts.retries = args.get("retries", opts.retries);
  opts.seed = args.get("seed", opts.seed);
  opts.straggle = probability(args, "straggle", opts.straggle);
  opts.delay = std::chrono::microseconds{args.get("delay-us", 3000)};
  opts.serial = args.get("serial", 1) != 0;
  opts.scrub_rate_kbps = static_cast<double>(args.get("scrub-rate-kbps", 0));
  const std::size_t assert_ratio = args.get("assert-ratio", 0);  // percent
  const std::size_t assert_floor_us = args.get("assert-floor-us", 2000);

  campaign::ServeReport report;
  campaign::run_serve(code, opts, report);
  for (const campaign::PhaseReport* phase :
       {&report.clean, &report.hedged, &report.serial}) {
    print_verdict(phase->verdict);
  }
  if (opts.scrub_rate_kbps > 0) {
    std::fprintf(stderr,
                 "%s: background scrub: %zu cycle(s) at %.0f KiB/s beside "
                 "the serving campaign\n",
                 code.name().c_str(), report.scrub_cycles,
                 opts.scrub_rate_kbps);
  }
  std::printf("%s\n", report.to_json().c_str());
  if (args.get("metrics", 0) != 0) {
    std::fprintf(stderr, "%s\n", serve_metrics().to_json().c_str());
  }

  const double clean_p99 = report.clean.latency.quantile_seconds(0.99);
  const double hedged_p99 = report.hedged.latency.quantile_seconds(0.99);
  const double serial_p99 = report.serial.latency.quantile_seconds(0.99);
  std::fprintf(stderr,
               "%s: serve campaign: %zu requests, p99 clean %.3gms hedged "
               "%.3gms serial %.3gms, %zu hedges (%zu won), %zu fallbacks, "
               "%zu verify failure(s)\n",
               code.name().c_str(),
               report.clean.requests + report.hedged.requests +
                   report.serial.requests,
               clean_p99 * 1e3, hedged_p99 * 1e3, serial_p99 * 1e3,
               report.hedged.hedges_launched, report.hedged.hedges_won,
               report.hedged.fallbacks, report.verify_failures());
  if (report.verify_failures() != 0) return 1;
  if (assert_ratio > 0) {
    const double allowed =
        std::max(clean_p99 * static_cast<double>(assert_ratio) / 100.0,
                 static_cast<double>(assert_floor_us) * 1e-6);
    if (hedged_p99 > allowed) {
      std::fprintf(stderr,
                   "ASSERT FAIL: hedged p99 %.6fs > allowed %.6fs "
                   "(%zu%% of clean p99 %.6fs, floor %zuus)\n",
                   hedged_p99, allowed, assert_ratio, clean_p99,
                   assert_floor_us);
      return 1;
    }
    if (report.ran_serial && hedged_p99 >= serial_p99) {
      std::fprintf(stderr,
                   "ASSERT FAIL: hedged p99 %.6fs does not beat serial "
                   "p99 %.6fs\n",
                   hedged_p99, serial_p99);
      return 1;
    }
  }
  return 0;
}

// Continuous-scrub campaign (campaign::run_scrub) or, with --drill 1, the
// crash drill (campaign::run_drill): report JSON on stdout; exit 1 on any
// miss.
int cmd_scrub(const ErasureCode& code, const Args& args) {
  campaign::ScrubOptions opts;
  opts.block_bytes = args.get("block", opts.block_bytes);
  opts.stripes = args.get("stripes", opts.stripes);
  opts.epochs = args.get("epochs", opts.epochs);
  opts.retries = args.get("retries", opts.retries);
  opts.seed = args.get("seed", opts.seed);
  opts.permanent = probability(args, "permanent", opts.permanent);
  opts.corrupt = probability(args, "corrupt", opts.corrupt);
  opts.spot_every = args.get("spot-every", opts.spot_every);
  opts.rate_kbps = static_cast<double>(args.get("rate-kbps", 0));
  opts.journal_dir = args.get("dir", std::string{});

  bool ok = false;
  if (args.get("drill", 0) != 0) {
    if (opts.journal_dir.empty()) {
      std::fprintf(stderr, "scrub --drill requires --dir <journal dir>\n");
      return 2;
    }
    const campaign::DrillReport report = campaign::run_drill(code, opts);
    print_verdict(report.verdict);
    std::printf("%s\n", report.to_json().c_str());
    ok = report.verdict.ok();
  } else {
    const campaign::ScrubReport report = campaign::run_scrub(code, opts);
    print_verdict(report.verdict);
    std::fprintf(stderr,
                 "%s: scrub campaign: %zu stripe(s) x %zu epoch(s), %zu "
                 "arrival(s) (%zu landed), %zu detected, %zu missed, "
                 "repairs %zu/%zu complete, %zu verify failure(s)\n",
                 code.name().c_str(), report.stripes, report.epochs,
                 report.arrivals, report.landed, report.detected,
                 report.missed, report.repairs_completed,
                 report.repairs_attempted, report.verdict.failures.size());
    std::printf("%s\n", report.to_json().c_str());
    ok = report.verdict.ok();
  }
  if (args.get("metrics", 0) != 0) {
    std::fprintf(stderr, "%s\n", scrub_metrics().to_json().c_str());
  }
  return ok ? 0 : 1;
}

int cmd_selftest(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  ScenarioGenerator gen(args.get("seed", 1));
  Stripe stripe(code, block);
  Rng rng(args.get("seed", 1) + 2);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) {
    std::printf("FAIL: encode\n");
    return 1;
  }
  if (!stripe_consistent(code, stripe.block_ptrs(), block)) {
    std::printf("FAIL: syndrome after encode\n");
    return 1;
  }
  const auto snap = stripe.snapshot();
  const PpmDecoder ppm_dec(code);
  for (int wave = 0; wave < 5; ++wave) {
    const FailureScenario sc = make_scenario(code, args, gen);
    stripe.erase(sc);
    const auto res = ppm_dec.decode(sc, stripe.block_ptrs(), block);
    if (!res || !stripe.equals(snap)) {
      std::printf("FAIL: decode wave %d\n", wave);
      return 1;
    }
  }
  std::printf("OK: %s — encode + 5 decode waves verified\n",
              code.name().c_str());
  return 0;
}

// `store ls` / `search ls`: one line per record or quarantined file.
void print_entries(const std::vector<SealedDir::Entry>& entries) {
  std::size_t records = 0;
  std::size_t quarantined = 0;
  for (const auto& entry : entries) {
    std::printf("%10ju  %s%s\n", entry.bytes, entry.filename.c_str(),
                entry.quarantined ? "  [QUARANTINED]" : "");
    ++(entry.quarantined ? quarantined : records);
  }
  std::fprintf(stderr, "%zu record(s), %zu quarantined\n", records,
               quarantined);
}

// `store gc` / `search gc`.
void print_gc(const SealedDir::GcReport& report) {
  std::printf("{\"removed_quarantined\":%zu,\"removed_tmp\":%zu}\n",
              report.removed_quarantined, report.removed_tmp);
}

// `store check` / `search check` fail unless the store holds records and
// every one re-proved sound.
bool check_failed(const SealedDir::CheckReport& report, const char* noun) {
  if (report.checked == 0) {
    std::fprintf(stderr, "FAIL: store has no %ss\n", noun);
  } else if (report.verified != report.checked) {
    std::fprintf(stderr, "FAIL: %zu of %zu %s(s) quarantined\n",
                 report.quarantined, report.checked, noun);
  }
  return report.checked == 0 || report.verified != report.checked;
}

// Persistent plan store operations (docs/PLAN_STORE.md):
//
//   store build --dir D [--sweep N|--scenario ...]   plan, verify, persist
//   store ls    --dir D                              list records on disk
//   store check --dir D                              zero-trust re-verify all
//   store gc    --dir D                              drop quarantined + tmp
//
// `check` exits 1 unless every record re-proves sound AND at least one
// record warmed a fresh Codec's plan cache — the CI restart drill.
int cmd_store(const ErasureCode& code, const Args& args) {
  const std::string action = args.subcommand;
  const std::string dir = args.get("dir", std::string{});
  if (dir.empty()) {
    std::fprintf(stderr, "store %s: --dir is required\n", action.c_str());
    return 2;
  }

  if (action == "build") {
    Codec::Options copts;
    copts.cache_capacity = args.get("capacity", 4096);
    Codec codec(code, copts);
    codec.attach_store(dir);
    std::size_t built = 0;
    std::size_t undecodable = 0;
    for (const FailureScenario& sc : selected_scenarios(code, args)) {
      if (codec.plan_for(sc) == nullptr) {
        ++undecodable;
      } else {
        ++built;
      }
    }
    const std::uint64_t stored = codec.metrics().planstore_stores.value();
    std::fprintf(stderr, "%s: %zu plan(s) built (%zu undecodable), %llu "
                 "persisted to %s\n",
                 code.name().c_str(), built, undecodable,
                 static_cast<unsigned long long>(stored), dir.c_str());
    std::printf("{\"built\":%zu,\"undecodable\":%zu,\"stored\":%llu}\n",
                built, undecodable,
                static_cast<unsigned long long>(stored));
    return built > 0 ? 0 : 1;
  }

  if (action == "ls") {
    print_entries(planstore::PlanStore(dir).list());
    return 0;
  }

  if (action == "check") {
    planstore::PlanStore store(dir);
    const auto report = store.check(code);
    // Restart drill: a fresh Codec must be able to warm its cache from
    // what survived the check.
    Codec::Options copts;
    copts.cache_capacity = args.get("capacity", 4096);
    Codec codec(code, copts);
    codec.attach_store(dir);
    const std::size_t warmed = codec.warm();
    const std::uint64_t warm_hits =
        codec.metrics().planstore_warm_hits.value();
    std::printf("{\"checked\":%zu,\"verified\":%zu,\"quarantined\":%zu,"
                "\"warm_hits\":%llu}\n",
                report.checked, report.verified, report.quarantined,
                static_cast<unsigned long long>(warm_hits));
    if (check_failed(report, "record")) return 1;
    std::fprintf(stderr, "PASS: %zu record(s) re-verified, %zu warmed\n",
                 report.verified, warmed);
    return 0;
  }

  if (action == "gc") {
    print_gc(planstore::PlanStore(dir).gc(args.get("keep-quarantined", 0)));
    return 0;
  }

  std::fprintf(stderr, "usage: ppm_cli store {build|ls|check|gc} --dir <d> "
               "[--code ... --sweep N] [--keep-quarantined N]\n");
  return 2;
}

// --- ppm_cli search — coefficient certification & search (search_coeff/).
// Dispatched before make_code: certifying does not require (and must not
// pay for) a full code construction.

coeffsearch::Geometry search_geometry(const Args& args) {
  const std::size_t n = args.get("n", 8);
  const std::size_t r = args.get("r", 16);
  return coeffsearch::Geometry{
      n, r, args.get("m", 2), args.get("s", 2),
      static_cast<unsigned>(args.get("w", SDCode::recommended_width(n, r)))};
}

coeffsearch::CertifyOptions search_certify_options(const Args& args) {
  coeffsearch::CertifyOptions opts;
  opts.exact_class_limit = args.get("exact-limit", opts.exact_class_limit);
  opts.stratified_classes = args.get("classes", opts.stratified_classes);
  opts.plan_budget = args.get("plan-budget", opts.plan_budget);
  opts.allow_deficient = args.get("allow-deficient", 0) != 0;
  opts.threads = static_cast<unsigned>(args.get("threads", 0));
  return opts;
}

std::vector<gf::Element> parse_coeffs(const std::string& csv) {
  std::vector<gf::Element> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    out.push_back(static_cast<gf::Element>(
        std::strtoull(csv.substr(pos, end - pos).c_str(), nullptr, 10)));
    pos = end + 1;
  }
  return out;
}

void print_search_metrics(const Args& args) {
  if (args.get("metrics", 0) != 0) {
    std::printf("%s\n", search_metrics().to_json().c_str());
  }
}

// Writes `cert` to the store at `dir`, when one is named.
bool persist_certificate(const std::string& dir,
                         const coeffsearch::Certificate& cert) {
  if (dir.empty()) return true;
  if (!coeffsearch::CertStore(dir).put(cert)) {
    std::fprintf(stderr, "FAIL: could not persist certificate\n");
    return false;
  }
  std::fprintf(stderr, "persisted to %s/%s\n", dir.c_str(),
               coeffsearch::CertStore::record_filename(cert.geometry).c_str());
  return true;
}

int cmd_search(const Args& args) {
  const std::string action = args.subcommand;
  const std::string dir = args.get("dir", std::string{});

  if (action == "certify") {
    const coeffsearch::Geometry g = search_geometry(args);
    const std::string csv = args.get("coeffs", std::string{});
    if (csv.empty()) {
      std::fprintf(stderr, "search certify: --coeffs a,b,... is required\n");
      return 2;
    }
    const std::vector<gf::Element> coeffs = parse_coeffs(csv);
    const coeffsearch::CertifyResult res =
        coeffsearch::certify_tuple(g, coeffs, search_certify_options(args));
    if (!res.certified) {
      std::fprintf(stderr, "REFUTED: %s\n", res.reason.c_str());
      std::string reason = res.reason;  // keep the stdout JSON escape-free
      for (char& c : reason)
        if (c == '"' || c == '\\' || c == '\n') c = '\'';
      std::printf("{\"certified\":false,\"reason\":\"%s\"}\n", reason.c_str());
      print_search_metrics(args);
      return 1;
    }
    std::printf("%s\n", res.cert.to_json().c_str());
    std::fprintf(stderr,
                 "CERTIFIED: %llu/%llu canonical classes rank-proven "
                 "(%s), %llu plan-proven, %llu deficient\n",
                 static_cast<unsigned long long>(res.cert.rank_checked),
                 static_cast<unsigned long long>(res.cert.canonical),
                 res.cert.exact ? "exact" : "stratified",
                 static_cast<unsigned long long>(res.cert.plans_proven),
                 static_cast<unsigned long long>(res.cert.deficient_classes));
    if (!persist_certificate(dir, res.cert)) return 1;
    print_search_metrics(args);
    return 0;
  }

  if (action == "best") {
    const coeffsearch::Geometry g = search_geometry(args);
    coeffsearch::SearchOptions opts;
    opts.candidate_budget = args.get("candidates", 512);
    opts.certify_budget = args.get("certify-budget", 4);
    opts.seed = args.get("seed", 0);
    opts.threads = static_cast<unsigned>(args.get("threads", 0));
    opts.certify = search_certify_options(args);
    const coeffsearch::SearchResult res = coeffsearch::search_best(g, opts);
    std::string out = "{\"found\":";
    out += res.found ? "true" : "false";
    out += ",\"candidates\":" + std::to_string(res.candidates_considered);
    out += ",\"rank_pruned\":" + std::to_string(res.rank_pruned);
    out += ",\"certified\":" + std::to_string(res.certified);
    out += ",\"refuted\":" + std::to_string(res.refuted);
    if (res.found) {
      out += ",\"tuple\":[";
      for (std::size_t i = 0; i < res.best.tuple.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(res.best.tuple[i]);
      }
      out += "],\"worst_case\":{\"critical_path\":" +
             std::to_string(res.best.cert.worst_case.critical_path) +
             ",\"work\":" + std::to_string(res.best.cert.worst_case.work) +
             "},\"pareto\":" + std::to_string(res.pareto.size());
    }
    out += '}';
    std::printf("%s\n", out.c_str());
    if (!res.found) {
      std::fprintf(stderr, "NO TUPLE FOUND: %s\n", res.reason.c_str());
      print_search_metrics(args);
      return 1;
    }
    std::fprintf(stderr, "best tuple of %llu certified (pareto %zu)\n",
                 static_cast<unsigned long long>(res.certified),
                 res.pareto.size());
    if (!persist_certificate(dir, res.best.cert)) return 1;
    print_search_metrics(args);
    return 0;
  }

  if (dir.empty()) {
    std::fprintf(stderr, "search %s: --dir is required\n", action.c_str());
    return 2;
  }

  if (action == "ls") {
    print_entries(coeffsearch::CertStore(dir).list());
    return 0;
  }

  if (action == "check") {
    coeffsearch::CertStore store(dir);
    const auto report = store.check();
    std::printf("{\"checked\":%zu,\"verified\":%zu,\"quarantined\":%zu}\n",
                report.checked, report.verified, report.quarantined);
    print_search_metrics(args);
    if (check_failed(report, "certificate")) return 1;
    std::fprintf(stderr, "PASS: %zu certificate(s) re-proven\n",
                 report.verified);
    return 0;
  }

  if (action == "gc") {
    print_gc(coeffsearch::CertStore(dir).gc(args.get("keep-quarantined", 0)));
    return 0;
  }

  std::fprintf(stderr,
               "usage: ppm_cli search {certify|best|ls|check|gc} "
               "[--n N --r R --m M --s S --w W] [--coeffs a,b,...] "
               "[--dir <d>] [--candidates N] [--plan-budget N] "
               "[--exact-limit N] [--classes N] [--allow-deficient 1] "
               "[--keep-quarantined N] [--metrics 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.command.empty()) {
    std::fprintf(stderr,
                 "usage: %s {info|costs|bench|batch|selftest|verify|"
                 "analyze|store|chaos|serve|scrub|search} "
                 "--code {sd|pmds|lrc|xorbas|rs|crs|evenodd|rdp|star} "
                 "[params]\n"
                 "       %s store {build|ls|check|gc} --dir <dir> [params]\n"
                 "       %s chaos --code <family> [--sweep N] [--seed S] "
                 "[--rounds R] [--permanent P] [--transient P] [--corrupt P] "
                 "[--retries N]\n"
                 "       %s serve --code <family> [--sweep N] [--seed S] "
                 "[--rounds R] [--requests N] [--straggle P] [--delay-us U] "
                 "[--serial 0|1] [--assert-ratio P] [--scrub-rate-kbps K]\n"
                 "       %s scrub --code <family> [--stripes N] [--epochs E] "
                 "[--seed S] [--permanent P] [--corrupt P] [--rate-kbps K] "
                 "[--dir <d>] [--drill 1]\n"
                 "       %s search {certify|best|ls|check|gc} "
                 "[--n N --r R --m M --s S --w W] [--coeffs a,b,...] "
                 "[--dir <d>]\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  try {
    // `search` works on a geometry, not a constructed code — dispatch
    // before make_code so certification costs are only paid once,
    // inside the search pipeline itself.
    if (args.command == "search") return cmd_search(args);
    const auto code = make_code(args);
    if (args.command == "info") return cmd_info(*code);
    if (args.command == "costs") return cmd_costs(*code, args);
    if (args.command == "bench") return cmd_bench(*code, args);
    if (args.command == "batch") return cmd_batch(*code, args);
    if (args.command == "selftest") return cmd_selftest(*code, args);
    if (args.command == "verify") return cmd_verify(*code, args);
    if (args.command == "analyze") return cmd_analyze(*code, args);
    if (args.command == "store") return cmd_store(*code, args);
    if (args.command == "chaos") return cmd_chaos(*code, args);
    if (args.command == "serve") return cmd_serve(*code, args);
    if (args.command == "scrub") return cmd_scrub(*code, args);
    std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
