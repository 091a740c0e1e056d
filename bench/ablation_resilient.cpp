// Ablation — resilience tax: what does the fault-tolerant serving path
// cost when nothing goes wrong? Compares the raw cached-plan decode
// (pointers straight into the stripe) against decode_resilient over a
// healthy in-memory BlockSource (per-read accounting + survivor fetch
// copies) and against the same with per-block CRC32 digests (adds the
// read-time and post-decode integrity passes). The overhead is the price
// of admission for retries/escalation/partial recovery — docs/ROBUSTNESS.md.
#include <cstdio>
#include <cstring>
#include <vector>

#include "codec/codec.h"
#include "io/block_source.h"

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Ablation", "plain decode vs resilient pipeline (clean source)");
  const std::size_t n = 16;
  const std::size_t r = 16;
  const unsigned w = SDCode::recommended_width(n, r);
  const SDCode code(n, r, 2, 2, w);
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);

  Codec::Options copts;
  copts.threads = 1;
  Codec codec(code, copts);

  std::printf("%10s  %10s %10s %10s  %9s %9s\n", "block", "plain",
              "resilient", "+digests", "tax", "tax+crc");
  for (const std::size_t block : {4u << 10, 16u << 10, 64u << 10,
                                  256u << 10}) {
    Stripe stripe(code, block);
    Rng rng(1);
    stripe.fill_data(rng);
    const TraditionalDecoder trad(code);
    if (!trad.encode(stripe.block_ptrs(), block)) return 1;
    const auto snap = stripe.snapshot();
    const std::size_t total = code.total_blocks();
    const auto backing = campaign::snapshot_ptrs(snap, total, block);
    const auto digests = campaign::digests_of(snap, total, block);

    // Warm the plan cache so every variant measures execution, not
    // planning.
    stripe.erase(g.scenario);
    if (!codec.decode(g.scenario, stripe.block_ptrs(), block)) return 1;

    std::vector<double> t_plain;
    std::vector<double> t_res;
    std::vector<double> t_crc;
    const std::size_t reps = bench::reps() * 3;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      stripe.erase(g.scenario);
      Timer t1;
      if (!codec.decode(g.scenario, stripe.block_ptrs(), block)) return 1;
      t_plain.push_back(t1.seconds());

      io::MemoryBlockSource source(backing.data(), total, block);
      stripe.erase(g.scenario);
      Timer t2;
      if (!codec.decode_resilient(g.scenario, source, stripe.block_ptrs(),
                                  block).complete) {
        return 1;
      }
      t_res.push_back(t2.seconds());

      stripe.erase(g.scenario);
      Timer t3;
      if (!codec.decode_resilient(g.scenario, source, stripe.block_ptrs(),
                                  block, {}, digests).complete) {
        return 1;
      }
      t_crc.push_back(t3.seconds());
    }
    const double plain = bench::median(std::move(t_plain));
    const double res = bench::median(std::move(t_res));
    const double crc = bench::median(std::move(t_crc));
    std::printf("%8zuKiB  %8.3fms %8.3fms %8.3fms  %8.2f%% %8.2f%%\n",
                block / 1024, plain * 1e3, res * 1e3, crc * 1e3,
                100 * (res / plain - 1), 100 * (crc / plain - 1));
  }
  std::printf("\n(the resilient path re-fetches survivors through the "
              "source into the caller's buffers and, with digests, CRCs "
              "every fetched and recovered block; on a healthy source "
              "that copy+checksum sweep is the whole tax)\n");
  std::printf("\nmetrics: %s\n", codec.metrics_json().c_str());
  return 0;
}
