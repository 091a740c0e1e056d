// Ablation — PPM without parallelism (T = 1): the paper's §III-B/§IV claim
// that PPM "can achieve performance improvement without triggering
// parallelism" purely from partitioning + sequence optimization (C4 < C1).
// Every number is measured single-thread wall-clock time (bench_common.h):
// alg1@1 is Algorithm 1 run serially (the groups, then H_rest, each a
// pass over the stripe), whole@1 and ppm@1 the whole-matrix and
// partitioned plans run tile-major in one task.
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Ablation", "PPM at T=1 — cost reduction only, no threads");
  const std::size_t r = 16;
  const std::size_t z = 1;

  std::printf("%4s %2s %2s  %9s %9s %9s  %9s %9s %9s\n", "n", "m", "s",
              "trad-ops", "ppm-ops", "op-saving", "alg1@1", "whole@1",
              "ppm@1");
  bench::Summary alg1;
  bench::Summary whole;
  bench::Summary ppm;
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t s : {1u, 2u, 3u}) {
      for (const std::size_t n : {6u, 11u, 16u, 21u}) {
        const unsigned w = SDCode::recommended_width(n, r);
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        const auto pt = bench::compare_sd(code, m, s, z, /*threads=*/1,
                                          0xAB2A + n * 100 + m * 10 + s,
                                          block);
        const double saving =
            100.0 * (static_cast<double>(pt.c1) - static_cast<double>(pt.ppm_ops)) /
            static_cast<double>(pt.c1);
        std::printf("%4zu %2zu %2zu  %9zu %9zu %8.2f%%  %8.2f%% %8.2f%% "
                    "%8.2f%%\n",
                    n, m, s, pt.c1, pt.ppm_ops, saving,
                    100 * pt.alg1_improvement(), 100 * pt.whole_improvement(),
                    100 * pt.ppm_improvement());
        alg1.add(pt.alg1_improvement());
        whole.add(pt.whole_improvement());
        ppm.add(pt.ppm_improvement());
      }
    }
  }
  std::printf("\nsingle-thread improvement over trad, alg1@1:  %s\n",
              alg1.str().c_str());
  std::printf("single-thread improvement over trad, whole@1: %s\n",
              whole.str().c_str());
  std::printf("single-thread improvement over trad, ppm@1:   %s\n",
              ppm.str().c_str());
  std::printf("(no threads run: alg1@1 runs min(C3,C4) < C1 ops as two "
              "passes over the stripe, ppm@1 the same ops tile-major, whole@1 "
              "C1 ops tile-major)\n");
  return 0;
}
