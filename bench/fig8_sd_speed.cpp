// Fig. 8 — decoding speed of SD (traditional, normal sequence) vs opt-SD
// (PPM, T = 4) for n in [6, 24], one panel per m in {1,2,3}, curves per s,
// plus the RS(m+1) reference speeds at w = 8/16/32. Paper setting:
// stripe = 32 MB, r = 16, T = 4, z = 1.
//
// Speeds are decode throughput in MB/s of stripe data, from measured
// wall-clock region time (bench_common.h): SD is the serial whole-matrix
// decoder, alg1 the paper's Algorithm 1 on 4 lanes and ppm the
// partitioned plan on 4 slices of the tile-major executor. The
// field-width switch at n*r > 255 produces the paper's "jagged lines".
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Fig.8", "SD vs opt-SD decode speed, RS reference (r=16, T=4, z=1)");
  const std::size_t r = 16;
  const std::size_t z = 1;
  const unsigned t = 4;

  bench::Summary alg1_impr;
  bench::Summary whole_impr;
  bench::Summary ppm_impr;

  for (const std::size_t m : {1u, 2u, 3u}) {
    std::printf("--- m = %zu (speeds in MB/s) ---\n", m);
    std::printf("%4s %2s", "n", "w");
    for (const std::size_t s : {1u, 2u, 3u}) {
      std::printf("  %6s%zu %6s%zu %6s%zu", "SD,s=", s, "alg1,", s, "ppm,", s);
    }
    std::printf("\n");
    for (std::size_t n = 6; n <= 24; n += 2) {
      const unsigned w = SDCode::recommended_width(n, r);
      std::printf("%4zu %2u", n, w);
      for (const std::size_t s : {1u, 2u, 3u}) {
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        const auto pt = bench::compare_sd(
            code, m, s, z, t, 0xF168000 + n * 100 + m * 10 + s, block);
        const std::size_t bytes = block * n * r;
        std::printf("  %7.0f %7.0f %7.0f",
                    bench::mb_per_s(bytes, pt.trad_seconds),
                    bench::mb_per_s(bytes, pt.alg1_seconds),
                    bench::mb_per_s(bytes, pt.ppm_seconds));
        alg1_impr.add(pt.alg1_improvement());
        whole_impr.add(pt.whole_improvement());
        ppm_impr.add(pt.ppm_improvement());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  // RS reference: decode speed of RS(k = n - (m+1), m+1) worst-case decode
  // at each field width (the paper plots "RS with m+1" since an SD code
  // with m disks + s sectors is compared against full (m+1)-disk parity).
  std::printf("--- RS(m+1) reference decode speed (MB/s) ---\n");
  std::printf("%4s %3s %10s %10s %10s\n", "n", "m+1", "w=8", "w=16", "w=32");
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (std::size_t n = 6; n <= 24; n += 6) {
      std::printf("%4zu %3zu", n, m + 1);
      for (const unsigned w : {8u, 16u, 32u}) {
        const RSCode code(n - (m + 1), m + 1, w);
        const std::size_t block =
            bench::block_bytes_for(n, code.field().symbol_bytes());
        Stripe stripe(code, block);
        Rng rng(0xF168100 + n + m + w);
        stripe.fill_data(rng);
        const TraditionalDecoder trad(code);
        if (!trad.encode(stripe.block_ptrs(), block)) return 1;
        ScenarioGenerator gen(0xF168200 + n * 10 + m + w);
        const auto g = gen.rs_failures(code, m + 1);
        std::vector<double> times;
        for (std::size_t rep = 0; rep < bench::reps(); ++rep) {
          stripe.erase(g.scenario);
          const auto res = trad.decode(g.scenario, stripe.block_ptrs(), block,
                                       SequencePolicy::kMatrixFirst);
          if (!res) return 1;
          times.push_back(res->seconds - res->plan_seconds);
        }
        std::printf(" %10.0f",
                    bench::mb_per_s(block * n, bench::median(times)));
      }
      std::printf("\n");
    }
  }

  std::printf("\nimprovement over SD, alg1@4:  %s\n", alg1_impr.str().c_str());
  std::printf("improvement over SD, whole@4: %s\n", whole_impr.str().c_str());
  std::printf("improvement over SD, ppm@4:   %s\n", ppm_impr.str().c_str());
  std::printf("(paper, opt-SD over SD: avg=61.09%%, range=[8.22%%, "
              "210.81%%])\n");
  return 0;
}
