// Fig. 11 — PPM improvement for LRC codes across storage cost 1.1 .. 1.7,
// with (left panel) fixed stripe size and (right panel) fixed strip size.
// Failure pattern: one faulty strip in each local group plus one extra
// failure, so the local repairs are the independent sub-matrices and the
// globals form H_rest (the paper reports 16.28%..36.71% improvement,
// smaller than SD because p is bounded by l, not by r - z). Columns are
// measured wall-clock improvements over the serial whole-matrix decoder
// on 4 real threads (bench_common.h).
#include <cstdio>

#include "bench_common.h"

using namespace ppm;

namespace {

struct LrcPoint {
  std::size_t k, l, g;
};

// Configurations chosen so (k+l+g)/k lands on the paper's x-axis.
constexpr LrcPoint kConfigs[] = {
    {40, 2, 2},  // 1.10
    {20, 2, 2},  // 1.20
    {20, 4, 2},  // 1.30
    {10, 2, 2},  // 1.40
    {10, 3, 2},  // 1.50
    {10, 4, 2},  // 1.60
    {10, 4, 3},  // 1.70
};

bench::ComparisonPoint run_point(const LRCCode& code, std::size_t block,
                                 std::uint64_t seed) {
  // Worst useful case: every local group loses one strip, plus one extra
  // failure handled by the global parities.
  ScenarioGenerator gen(seed);
  return bench::compare(code, gen.lrc_failures(code, code.l(), 1), 4, seed,
                        block);
}

void print_point(const LRCCode& code, const LrcPoint& cfg,
                 const bench::ComparisonPoint& pt) {
  std::printf("%6.2f  LRC(%2zu,%zu,%zu)  %8.2f%% %8.2f%% %8.2f%%\n",
              code.storage_cost(), cfg.k, cfg.l, cfg.g,
              100 * pt.alg1_improvement(), 100 * pt.whole_improvement(),
              100 * pt.ppm_improvement());
}

}  // namespace

int main() {
  bench::banner("Fig.11", "LRC improvement vs storage cost");

  std::printf("--- fixed stripe size (%zu MiB total) ---\n",
              bench::stripe_mib());
  std::printf("%6s %14s  %9s %9s %9s\n", "cost", "LRC(k,l,g)", "alg1@4",
              "whole@4", "ppm@4");
  for (const LrcPoint& cfg : kConfigs) {
    const LRCCode code(cfg.k, cfg.l, cfg.g, 8);
    const std::size_t block = bench::block_bytes_for(code.total_blocks(), 1);
    print_point(code, cfg,
                run_point(code, block,
                          0xF16B000 + cfg.k * 100 + cfg.l * 10 + cfg.g));
  }

  // Fixed strip size: each strip keeps the same byte count regardless of k,
  // so bigger codes mean bigger stripes (paper: strip = 64 MB; scaled to
  // stripe_mib()/4 per strip here).
  const std::size_t strip_bytes =
      std::max<std::size_t>(bench::stripe_mib() * 1024 * 1024 / 4, 64 * 1024);
  std::printf("\n--- fixed strip size (%zu KiB per strip) ---\n",
              strip_bytes / 1024);
  std::printf("%6s %14s  %9s %9s %9s\n", "cost", "LRC(k,l,g)", "alg1@4",
              "whole@4", "ppm@4");
  for (const LrcPoint& cfg : kConfigs) {
    const LRCCode code(cfg.k, cfg.l, cfg.g, 8);
    print_point(code, cfg,
                run_point(code, strip_bytes,
                          0xF16B100 + cfg.k * 100 + cfg.l * 10 + cfg.g));
  }

  std::printf("\n(paper: improvement 16.28%%..36.71%%, below SD because the "
              "parallelism degree is bounded by l)\n");
  return 0;
}
