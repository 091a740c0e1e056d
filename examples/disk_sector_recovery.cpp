// Disk + sector failure recovery at realistic scale — the single-machine
// storage scenario that motivates SD/PMDS codes (paper §I): a whole disk
// dies and, while rebuilding, latent sector errors surface on the
// survivors. Times the traditional decoder, PPM's Algorithm 1 and the
// Codec on the same failure, printing each one's measured breakdown.
//
//   ./disk_sector_recovery [n r m s stripe_mib]     (defaults: 8 16 2 2 8)
#include <cstdio>
#include <cstdlib>

#include "ppm.h"

using namespace ppm;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;
  const std::size_t r = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
  const std::size_t m = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2;
  const std::size_t s = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 2;
  const std::size_t mib = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 8;

  const unsigned w = SDCode::recommended_width(n, r);
  const SDCode code(n, r, m, s, w);
  std::size_t block = mib * 1024 * 1024 / code.total_blocks();
  block -= block % code.field().symbol_bytes();
  std::printf("array: %zu disks x %zu sectors, %s, block = %zu KiB\n", n, r,
              code.name().c_str(), block / 1024);

  Stripe stripe(code, block);
  Rng rng(42);
  stripe.fill_data(rng);
  const TraditionalDecoder traditional(code);
  if (!traditional.encode(stripe.block_ptrs(), block)) return 1;
  const auto golden = stripe.snapshot();

  // m whole disks fail; s latent sector errors surface in one row.
  ScenarioGenerator gen(7);
  const auto g = gen.sd_worst_case(code, m, s, 1);
  std::printf("failure: %zu blocks lost (%zu whole disks + %zu sectors)\n",
              g.scenario.count(), m, s);

  // Warm-up (untimed) so both timed decodes run on hot pages.
  stripe.erase(g.scenario);
  if (!traditional.decode(g.scenario, stripe.block_ptrs(), block)) return 1;

  stripe.erase(g.scenario);
  const auto trad = traditional.decode(g.scenario, stripe.block_ptrs(), block,
                                       SequencePolicy::kNormal);
  if (!trad || !stripe.equals(golden)) return 1;
  std::printf("\ntraditional: %8.3f ms  (%zu mult_XORs, plan %.3f ms)\n",
              trad->seconds * 1e3, trad->stats.mult_xors,
              trad->plan_seconds * 1e3);

  stripe.erase(g.scenario);
  const PpmDecoder ppm_decoder(code);
  const auto ppm_res =
      ppm_decoder.decode(g.scenario, stripe.block_ptrs(), block);
  if (!ppm_res || !stripe.equals(golden)) return 1;
  std::printf("PPM:         %8.3f ms  (%zu mult_XORs, plan %.3f ms, "
              "p=%zu groups on T=%u threads in %.3f ms, rest %.3f ms)\n",
              ppm_res->seconds * 1e3, ppm_res->stats.mult_xors,
              ppm_res->plan_seconds * 1e3, ppm_res->p,
              ppm_res->threads_used, ppm_res->parallel_seconds * 1e3,
              ppm_res->rest_seconds * 1e3);

  // The library path: Codec caches the partitioned plan and cuts the
  // stripe into one byte range per core. The first decode builds the plan.
  Codec codec(code);
  stripe.erase(g.scenario);
  if (!codec.decode(g.scenario, stripe.block_ptrs(), block)) return 1;
  stripe.erase(g.scenario);
  const Timer timer;
  if (!codec.decode(g.scenario, stripe.block_ptrs(), block)) return 1;
  const double codec_seconds = timer.seconds();
  if (!stripe.equals(golden)) return 1;
  std::printf("Codec:       %8.3f ms  (plan cached, %u threads; speed "
              "%+.2f%% vs traditional)\n",
              codec_seconds * 1e3, hardware_threads(),
              100 * (trad->seconds / codec_seconds - 1));
  std::printf("cost reduction alone: %.2f%% fewer region ops\n",
              100.0 * (trad->stats.mult_xors - ppm_res->stats.mult_xors) /
                  trad->stats.mult_xors);
  return 0;
}
