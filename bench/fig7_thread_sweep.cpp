// Fig. 7 — PPM improvement for different thread counts T. Paper setting:
// stripe = 32 MB, r = 16, z = 1, panels over (m, s), n in {6, 11, 16, 21},
// T = 1..4 on a 4-core CPU.
//
// Every column is measured wall-clock time on T real threads (see
// bench_common.h): alg1@T is the paper's Algorithm 1, whole@T and ppm@T
// the whole-matrix and partitioned plans on T slices of the tile-major
// executor. Improvements are over the serial whole-matrix decoder; its
// T=1 rows are the paper's "PPM without parallelism" observation
// (§III-B). The last line is one JSON object holding every point's
// medians.
#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace ppm;
using bench::compare_sd;

int main() {
  bench::banner("Fig.7", "PPM improvement vs thread count T (r=16, z=1)");
  const std::size_t r = 16;
  const std::size_t z = 1;
  const std::size_t ns[] = {6, 11, 16, 21};

  bench::Summary alg1_t2;
  bench::Summary whole_t2;
  bench::Summary ppm_t2;
  std::string points;

  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t s : {1u, 2u, 3u}) {
      std::printf("--- m = %zu, s = %zu ---\n", m, s);
      std::printf("%4s %3s %4s  %9s %9s %9s  %9s %9s %9s\n", "n", "T", "p",
                  "plan-whl", "plan-ppm", "trad-ms", "alg1@T", "whole@T",
                  "ppm@T");
      for (const std::size_t n : ns) {
        if (n <= m || s > z * (n - m)) continue;
        const unsigned w = SDCode::recommended_width(n, r);
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        for (unsigned t = 1; t <= 4; ++t) {
          const auto pt = compare_sd(code, m, s, z, t,
                                     0xF167000 + n * 100 + m * 10 + s, block);
          std::printf("%4zu %3u %4zu  %9.3f %9.3f %9.3f  %8.2f%% %8.2f%% "
                      "%8.2f%%\n",
                      n, t, pt.p, pt.plan_whole_seconds * 1e3,
                      pt.plan_ppm_seconds * 1e3, pt.trad_seconds * 1e3,
                      100 * pt.alg1_improvement(),
                      100 * pt.whole_improvement(),
                      100 * pt.ppm_improvement());
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "%s{\"m\":%zu,\"s\":%zu,\"n\":%zu,\"t\":%u,",
                        points.empty() ? "" : ",", m, s, n, t);
          points += buf + pt.json() + "}";
          if (t == 2) {
            alg1_t2.add(pt.alg1_improvement());
            whole_t2.add(pt.whole_improvement());
            ppm_t2.add(pt.ppm_improvement());
          }
        }
      }
      std::printf("\n");
    }
  }

  std::printf("T=2 improvement over trad, alg1@2:  %s\n", alg1_t2.str().c_str());
  std::printf("T=2 improvement over trad, whole@2: %s\n",
              whole_t2.str().c_str());
  std::printf("T=2 improvement over trad, ppm@2:   %s\n", ppm_t2.str().c_str());
  std::printf("(paper, two threads: avg=46.29%%, range=[8.45%%, 178.38%%])\n");
  std::printf("{\"bench\":\"fig7_thread_sweep\",\"stripe_mib\":%zu,"
              "\"reps\":%zu,\"isa\":\"%s\",\"cores\":%u,\"points\":[%s]}\n",
              bench::stripe_mib(), bench::reps(), isa_name(detect_isa()),
              hardware_threads(), points.c_str());
  return 0;
}
