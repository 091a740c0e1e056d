// Ablation — encoding through PPM. The paper treats encoding as the
// decoding special case where all parity blocks are unknown (§II-B
// footnote); for SD codes the per-row parity groups are independent, so
// encoding partitions into p ≈ r groups and parallelizes the same way
// decoding does. This bench times the all-parity "decode" with the four
// decoders of bench_common.h on 4 real threads; ppm@4 is Codec::encode's
// plan and executor.
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Ablation", "encoding as the all-parity decode (trad vs PPM)");
  const std::size_t r = 16;
  std::printf("%4s %2s %2s  %9s %9s %9s  %9s %9s %9s  %4s\n", "n", "m", "s",
              "trad-ops", "ppm-ops", "trad-ms", "alg1@4", "whole@4", "ppm@4",
              "p");
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t s : {1u, 2u}) {
      for (const std::size_t n : {6u, 11u, 16u, 21u}) {
        if (n <= m) continue;
        const unsigned w = SDCode::recommended_width(n, r);
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        const auto pt = bench::compare(
            code, {FailureScenario::encoding_of(code)}, 4, 0xE2C + n, block);
        std::printf("%4zu %2zu %2zu  %9zu %9zu %9.2f  %8.2f%% %8.2f%% "
                    "%8.2f%%  %4zu\n",
                    n, m, s, pt.c1, pt.ppm_ops, pt.trad_seconds * 1e3,
                    100 * pt.alg1_improvement(), 100 * pt.whole_improvement(),
                    100 * pt.ppm_improvement(), pt.p);
      }
    }
  }
  std::printf("\n(improvement over trad in measured region time. Encoding "
              "partitions per stripe row for SD: p tracks r or r-1 depending "
              "on where the coding sectors sit)\n");
  return 0;
}
