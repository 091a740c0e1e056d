// Fig. 10 — PPM improvement on three different CPUs (paper: Xeon E5-2603
// 4-core, i7-3930K 6-core, Xeon E5-2650 8-core; similar improvement on
// all three).
//
// Substitution (DESIGN.md §3): one physical CPU is available here, so the
// "different CPU" axis is replayed along its two constituent dimensions:
//   (a) core count — the modeled lane count set to 4 / 6 / 8;
//   (b) micro-architecture — the GF kernel ISA family pinned to scalar /
//       SSSE3 / AVX2 / AVX-512 / GFNI via PPM_FORCE_ISA, exercised per-op
//       here.
// The paper's claim is that the *improvement ratio* is insensitive to the
// CPU; that is exactly what both axes test.
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Fig.10", "PPM improvement across CPU proxies (r=16, z=1, T=4)");
  const std::size_t r = 16;
  const std::size_t z = 1;
  const std::size_t ns[] = {6, 11, 16, 21};

  std::printf("--- axis (a): modeled core count (lane count) ---\n");
  std::printf("%4s %2s %2s  %10s %10s %10s\n", "n", "m", "s", "4-core",
              "6-core", "8-core");
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t s : {1u, 2u, 3u}) {
      for (const std::size_t n : ns) {
        if (n <= m || s > z * (n - m)) continue;
        const unsigned w = SDCode::recommended_width(n, r);
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        ScenarioGenerator gen(0xF16A000 + n * 100 + m * 10 + s);
        const auto g = gen.sd_worst_case(code, m, s, z);
        Stripe stripe(code, block);
        Rng rng(1);
        stripe.fill_data(rng);
        const TraditionalDecoder trad(code);
        if (!trad.encode(stripe.block_ptrs(), block)) return 1;
        // Untimed warm-up.
        stripe.erase(g.scenario);
        if (!trad.decode(g.scenario, stripe.block_ptrs(), block)) return 1;
        std::vector<double> t_trad;
        std::vector<double> t4;
        std::vector<double> t6;
        std::vector<double> t8;
        PpmOptions opts;
        opts.threads = 4;
        const PpmDecoder dec(code, opts);
        for (std::size_t rep = 0; rep < bench::reps(); ++rep) {
          stripe.erase(g.scenario);
          const auto tr = trad.decode(g.scenario, stripe.block_ptrs(), block);
          if (!tr) return 1;
          t_trad.push_back(tr->seconds);
          stripe.erase(g.scenario);
          const auto pr = dec.decode(g.scenario, stripe.block_ptrs(), block);
          if (!pr) return 1;
          t4.push_back(pr->modeled_seconds(4));
          t6.push_back(pr->modeled_seconds(6));
          t8.push_back(pr->modeled_seconds(8));
        }
        const double base = bench::median(t_trad);
        std::printf("%4zu %2zu %2zu  %9.2f%% %9.2f%% %9.2f%%\n", n, m, s,
                    100 * bench::improvement(base, bench::median(t4)),
                    100 * bench::improvement(base, bench::median(t6)),
                    100 * bench::improvement(base, bench::median(t8)));
      }
    }
  }

  std::printf("\n--- axis (b): GF kernel ISA family (single-core wall "
              "improvement, T=1) ---\n");
  std::printf("run this binary under "
              "PPM_FORCE_ISA=scalar|ssse3|avx2|avx512|gfni to pin a family; "
              "current run uses '%s'.\n",
              isa_name(detect_isa()));
  std::printf("%4s %2s %2s  %12s %12s %14s\n", "n", "m", "s", "SD MB/s",
              "opt-SD MB/s", "wall-impr");
  for (const std::size_t n : ns) {
    const std::size_t m = 2;
    const std::size_t s = 2;
    const unsigned w = SDCode::recommended_width(n, r);
    const SDCode code(n, r, m, s, w);
    const std::size_t block =
        bench::block_bytes_for(n * r, code.field().symbol_bytes());
    const auto pt = bench::compare_sd(code, m, s, z, 1,
                                      0xF16A100 + n, block);
    const std::size_t bytes = block * n * r;
    std::printf("%4zu %2zu %2zu  %12.0f %12.0f %13.2f%%\n", n, m, s,
                bench::mb_per_s(bytes, pt.trad_seconds),
                bench::mb_per_s(bytes, pt.ppm_wall_seconds),
                100 * pt.measured_improvement());
  }
  std::printf("\n(paper: improvement ratios similar across all three CPUs)\n");
  return 0;
}
