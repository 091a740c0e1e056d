// Ablation — cold-start SLO with and without the persistent plan store.
//
// A restarted node owns no cached plans: every first decode of a failure
// scenario pays plan construction (log-table, partition, Gauss-Jordan
// inversion, sequence costing, hazard analysis). The plan store amortizes
// that across restarts: plans built once are serialized to disk and a
// fresh process warms its sharded cache from the store, paying only the
// zero-trust re-verification (parse + CRC + planverify + hazard).
//
// Three cold-start strategies over the same scenario sweep (all 1- and
// 2-disk failure combinations):
//   A. rebuild   — no store: first decode builds the plan from scratch;
//   B. load      — store attached, cache cold: first decode pays one
//                  zero-trust load (read-through) instead of the rebuild;
//   C. warm      — Codec::warm() bulk-preloads the cache at startup:
//                  first decode is a pure cache hit.
// The one-time store build (write-through sweep) is reported separately —
// it is paid once per code change, not per restart.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_common.h"

using namespace ppm;

namespace {

// Time-to-first-plan for every scenario on a cold codec; returns total
// seconds (the restart's planning bill).
double first_plan_total(Codec& codec,
                        const std::vector<FailureScenario>& sweep) {
  const Timer t;
  for (const FailureScenario& sc : sweep) {
    if (codec.plan_for(sc) == nullptr) std::abort();
  }
  return t.seconds();
}

}  // namespace

int main() {
  bench::banner("Ablation", "persistent plan store vs cold-start rebuild");
  const std::size_t n = 8;
  const std::size_t r = 16;
  const unsigned w = SDCode::recommended_width(n, r);
  const SDCode code(n, r, 2, 2, w);
  const auto sweep = campaign::disk_sweep(code, 2);
  const std::size_t reps = bench::reps();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ppm_bench_plan_store";
  std::filesystem::remove_all(dir);

  // One-time store build (write-through sweep).
  double build_seconds = 0;
  {
    Codec::Options opts;
    opts.cache_capacity = 16 * sweep.size();
    Codec builder(code, opts);
    builder.attach_store(dir.string());
    const Timer t;
    for (const FailureScenario& sc : sweep) {
      if (builder.plan_for(sc) == nullptr) return 1;
    }
    build_seconds = t.seconds();
    if (builder.metrics().planstore_stores.value() != sweep.size()) return 1;
  }

  std::vector<double> rebuild;
  std::vector<double> load;
  std::vector<double> warm_total;
  std::vector<double> warm_decode;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Codec::Options opts;
    opts.cache_capacity = 16 * sweep.size();
    {
      Codec a(code, opts);  // A: no store — rebuild every plan
      rebuild.push_back(first_plan_total(a, sweep));
    }
    {
      Codec b(code, opts);  // B: read-through — zero-trust load per miss
      b.attach_store(dir.string());
      load.push_back(first_plan_total(b, sweep));
    }
    {
      Codec c(code, opts);  // C: warm() at startup, then pure cache hits
      c.attach_store(dir.string());
      const Timer t;
      if (c.warm() != sweep.size()) return 1;
      const double warmed = t.seconds();
      warm_decode.push_back(first_plan_total(c, sweep));
      warm_total.push_back(warmed + warm_decode.back());
    }
  }

  // Correctness: the warmed codec's plan must decode byte-identically.
  {
    Codec c(code);
    c.attach_store(dir.string());
    c.warm();
    const std::size_t block = 4096;
    Stripe stripe(code, block);
    Rng rng(11);
    stripe.fill_data(rng);
    const TraditionalDecoder trad(code);
    if (!trad.encode(stripe.block_ptrs(), block)) return 1;
    const auto snap = stripe.snapshot();
    stripe.erase(sweep.front());
    if (!c.decode(sweep.front(), stripe.block_ptrs(), block)) return 1;
    if (!stripe.equals(snap)) {
      std::fprintf(stderr, "VERIFICATION FAILED\n");
      return 1;
    }
  }

  const double t_a = bench::median(rebuild);
  const double t_b = bench::median(load);
  const double t_c = bench::median(warm_total);
  const double t_hit = bench::median(warm_decode);
  std::printf("%zu scenario(s), %zu rep(s); one-time store build %.2f ms\n\n",
              sweep.size(), reps, build_seconds * 1e3);
  std::printf("%-28s %12s %14s\n", "cold-start strategy", "total ms",
              "vs rebuild");
  std::printf("%-28s %12.3f %14s\n", "A: rebuild (no store)", t_a * 1e3, "-");
  std::printf("%-28s %12.3f %13.2fx\n", "B: zero-trust read-through",
              t_b * 1e3, t_a / t_b);
  std::printf("%-28s %12.3f %13.2fx\n", "C: warm() + cache hits", t_c * 1e3,
              t_a / t_c);
  std::printf("%-28s %12.3f %13.2fx\n", "   (post-warm first decodes)",
              t_hit * 1e3, t_a / t_hit);

  std::filesystem::remove_all(dir);
  return 0;
}
