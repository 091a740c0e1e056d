// Fig. 9 — PPM improvement vs stripe size (paper: 2 MB .. 128 MB, n = 16,
// r = 16, T = 4, z = 1). Small stripes expose the fixed thread-start and
// pool hand-off overhead; the improvement stabilizes once stripes are
// large (the paper observes steadiness beyond 8 MB).
//
// Every number is measured wall-clock time (bench_common.h): one table of
// improvements over the serial whole-matrix decoder per parallel decoder,
// then the planning time, which is paid once per decode whatever the
// stripe size.
//
// The sweep here runs 1..32 MiB by default; set PPM_STRIPE_MAX_MB=128 to
// replicate the paper's full axis.
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Fig.9", "PPM improvement vs stripe size (n=16, r=16, T=4, z=1)");
  const std::size_t n = 16;
  const std::size_t r = 16;
  const std::size_t z = 1;
  const unsigned t = 4;
  const unsigned w = SDCode::recommended_width(n, r);
  const std::size_t max_mb = bench::env_size("PPM_STRIPE_MAX_MB", 32);

  std::vector<std::size_t> sizes;
  std::vector<std::vector<bench::ComparisonPoint>> rows;  // [size][m,s]
  for (std::size_t mb = 1; mb <= max_mb; mb *= 2) {
    sizes.push_back(mb);
    rows.emplace_back();
    for (const std::size_t m : {1u, 2u, 3u}) {
      for (const std::size_t s : {1u, 2u, 3u}) {
        const SDCode code(n, r, m, s, w);
        std::size_t block = mb * 1024 * 1024 / (n * r);
        block -= block % code.field().symbol_bytes();
        rows.back().push_back(bench::compare_sd(
            code, m, s, z, t, 0xF169000 + mb * 100 + m * 10 + s, block));
      }
    }
  }

  const auto table = [&](const char* title, auto value, const char* unit) {
    std::printf("--- %s ---\n%6s", title, "stripe");
    for (const std::size_t m : {1u, 2u, 3u}) {
      for (const std::size_t s : {1u, 2u, 3u}) std::printf("  %7s%zus%zu", "m", m, s);
    }
    std::printf("\n");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::printf("%4zuMB", sizes[i]);
      for (const bench::ComparisonPoint& pt : rows[i]) {
        std::printf("  %9.2f%s", value(pt), unit);
      }
      std::printf("\n");
    }
    std::printf("\n");
  };
  table("alg1@4 improvement over trad",
        [](const auto& pt) { return 100 * pt.alg1_improvement(); }, "%");
  table("whole@4 improvement over trad",
        [](const auto& pt) { return 100 * pt.whole_improvement(); }, "%");
  table("ppm@4 improvement over trad",
        [](const auto& pt) { return 100 * pt.ppm_improvement(); }, "%");
  table("partitioned planning time (ms)",
        [](const auto& pt) { return 1e3 * pt.plan_ppm_seconds; }, " ");
  std::printf("(paper trend: multithreading overhead shrinks with stripe "
              "size; improvement steady beyond 8MB)\n");
  return 0;
}
