// Fig. 10 — PPM improvement on three different CPUs (paper: Xeon E5-2603
// 4-core, i7-3930K 6-core, Xeon E5-2650 8-core; similar improvement on
// all three).
//
// Substitution (DESIGN.md §3): one physical CPU is available here, so the
// "different CPU" axis becomes its micro-architecture: the GF kernel ISA
// family pinned to scalar / SSSE3 / AVX2 / AVX-512 / GFNI via
// PPM_FORCE_ISA. The paper's claim is that the *improvement ratio* is
// insensitive to the CPU; run this binary once per family and compare the
// improvement columns. Every number is measured wall-clock time on 4 real
// threads (bench_common.h).
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Fig.10", "PPM improvement across CPU proxies (r=16, z=1, T=4)");
  const std::size_t r = 16;
  const std::size_t z = 1;
  const unsigned t = 4;
  const std::size_t ns[] = {6, 11, 16, 21};

  std::printf("--- GF kernel ISA family (m=2, s=2) ---\n");
  std::printf("run this binary under "
              "PPM_FORCE_ISA=scalar|ssse3|avx2|avx512|gfni to pin a family; "
              "current run uses '%s'.\n",
              isa_name(detect_isa()));
  std::printf("%4s %2s %2s  %9s  %9s %9s %9s\n", "n", "m", "s", "SD MB/s",
              "alg1@4", "whole@4", "ppm@4");
  for (const std::size_t n : ns) {
    const std::size_t m = 2;
    const std::size_t s = 2;
    const unsigned w = SDCode::recommended_width(n, r);
    const SDCode code(n, r, m, s, w);
    const std::size_t block =
        bench::block_bytes_for(n * r, code.field().symbol_bytes());
    const auto pt = bench::compare_sd(code, m, s, z, t, 0xF16A100 + n, block);
    std::printf("%4zu %2zu %2zu  %9.0f  %8.2f%% %8.2f%% %8.2f%%\n", n, m, s,
                bench::mb_per_s(block * n * r, pt.trad_seconds),
                100 * pt.alg1_improvement(), 100 * pt.whole_improvement(),
                100 * pt.ppm_improvement());
  }
  std::printf("\n(paper: improvement ratios similar across all three CPUs)\n");
  return 0;
}
