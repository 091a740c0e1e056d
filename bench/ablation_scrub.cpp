// Ablation — what does the scrub rate limit cost, and what does it buy?
//
// Two questions, one fleet:
//
//  1. Detection/repair latency vs budget. A fleet of stripes each carries
//     one silent corruption; one full scrub cycle (sweep -> rank ->
//     repair) runs under different token-bucket budgets. The sweep is
//     the time-to-detect, the cycle the time-to-repair; both stretch as
//     the budget shrinks — that stretch is the price of politeness.
//
//  2. Foreground interference. A foreground loop decodes an erased
//     stripe through the resilient ladder while a background thread
//     scrubs the fleet continuously at each budget. The foreground
//     latency distribution (p50/p99) against the no-scrub baseline shows
//     what an unpaced scrub does to serving and how the limiter claws it
//     back — the same coexistence the `ppm_cli serve --scrub-rate-kbps`
//     gate asserts in CI (docs/ROBUSTNESS.md, docs/SERVING.md).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace ppm;

namespace {

campaign::Fleet build_fleet(const ErasureCode& code, std::size_t stripes,
                            std::size_t block, std::uint64_t seed) {
  Rng rng(seed);
  campaign::Fleet fleet(stripes);
  for (auto& m : fleet) {
    m = std::make_unique<campaign::PatrolledStripe>(code, block, rng);
  }
  return fleet;
}

void add_fleet(scrub::Scrubber& scrubber, campaign::Fleet& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    scrubber.add_target(fleet[i]->target("bench-" + std::to_string(i)));
  }
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  return v[i];
}

}  // namespace

int main() {
  bench::banner("Ablation", "scrub budget vs detection latency and "
                            "foreground interference");
  const RSCode code(6, 3, 8);
  const std::size_t stripes = 8;
  const std::size_t block = bench::block_bytes_for(64, 8);
  const std::size_t fleet_bytes = stripes * code.total_blocks() * block;

  struct Budget {
    const char* label;
    double bytes_per_sec;
  };
  const Budget budgets[] = {
      {"unpaced", 0.0},
      {"1 GiB/s", 1024.0 * 1024.0 * 1024.0},
      {"256 MiB/s", 256.0 * 1024.0 * 1024.0},
      {"64 MiB/s", 64.0 * 1024.0 * 1024.0},
  };

  // --- 1: one cycle over a fleet with one latent error per stripe -------
  std::printf("%10s  %10s %10s %10s  %8s %8s\n", "budget", "sweep",
              "cycle", "scan MB/s", "latent", "repairs");
  for (const Budget& budget : budgets) {
    auto fleet = build_fleet(code, stripes, block, 0x5C12B);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      io::FaultSpec rot;
      rot.corrupt = true;
      rot.corrupt_offset = (i * 7) % block;
      rot.corrupt_bytes = 8;
      fleet[i]->seam->set_fault(i % code.total_blocks(), rot);
    }
    Codec codec(code);
    scrub::ScrubOptions options;
    options.rate_bytes_per_sec = budget.bytes_per_sec;
    options.burst_bytes = std::size_t{1} << 20;
    scrub::Scrubber scrubber(codec, options);
    add_fleet(scrubber, fleet);

    Timer cycle_timer;
    const scrub::CycleReport cycle = scrubber.run_cycle();
    const double cycle_s = cycle_timer.seconds();
    std::printf("%10s  %8.2fms %8.2fms %10.1f  %8zu %8zu\n", budget.label,
                cycle.sweep.seconds * 1e3, cycle_s * 1e3,
                bench::mb_per_s(fleet_bytes, cycle.sweep.seconds),
                cycle.sweep.latent_total, cycle.repair.completed);
    if (cycle.sweep.latent_total != stripes ||
        cycle.repair.completed != stripes) {
      std::fprintf(stderr, "scrub cycle missed damage\n");
      return 1;
    }
  }

  // --- 2: foreground decode latency while the fleet scrubs -------------
  ScenarioGenerator gen(0xB0B);
  Stripe fg(code, block);
  Rng fill(2);
  fg.fill_data(fill);
  const TraditionalDecoder trad(code);
  if (!trad.encode(fg.block_ptrs(), block)) return 1;
  const auto snap = fg.snapshot();
  const std::size_t total = code.total_blocks();
  const auto backing = campaign::snapshot_ptrs(snap, total, block);
  const FailureScenario erased({1, 4, 7});
  const std::size_t reps = bench::reps() * 24;

  std::printf("\n%10s  %10s %10s  %s\n", "budget", "fg p50", "fg p99",
              "scrub cycles");
  std::vector<double> baseline;
  for (int with_scrub = 0; with_scrub < 2; ++with_scrub) {
    for (const Budget& budget : budgets) {
      auto fleet = build_fleet(code, stripes, block, 0x5C12B);
      Codec codec(code);
      scrub::ScrubOptions options;
      options.rate_bytes_per_sec = budget.bytes_per_sec;
      scrub::Scrubber scrubber(codec, options);
      add_fleet(scrubber, fleet);

      Codec fg_codec(code);
      io::MemoryBlockSource source(backing.data(), total, block);
      // Warm the plan cache outside the timed region.
      fg.erase(erased);
      if (!fg_codec.decode_resilient(erased, source, fg.block_ptrs(), block)
               .complete) {
        return 1;
      }

      std::atomic<bool> stop{false};
      std::atomic<std::size_t> cycles{0};
      std::thread patrol;
      if (with_scrub != 0) {
        patrol = std::thread([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            scrubber.run_cycle();
            cycles.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      std::vector<double> lat;
      lat.reserve(reps);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        fg.erase(erased);
        Timer t;
        if (!fg_codec.decode_resilient(erased, source, fg.block_ptrs(), block)
                 .complete) {
          return 1;
        }
        lat.push_back(t.seconds());
      }
      stop.store(true, std::memory_order_relaxed);
      if (patrol.joinable()) patrol.join();
      if (!fg.equals(snap)) return 1;

      if (with_scrub == 0) {
        // All no-scrub runs are the same experiment; keep one baseline.
        baseline = lat;
        std::printf("%10s  %8.3fms %8.3fms  %s\n", "none",
                    percentile(lat, 0.50) * 1e3, percentile(lat, 0.99) * 1e3,
                    "--");
        break;
      }
      std::printf("%10s  %8.3fms %8.3fms  %zu\n", budget.label,
                  percentile(lat, 0.50) * 1e3, percentile(lat, 0.99) * 1e3,
                  cycles.load());
    }
  }
  std::printf("\n(fleet %zu stripes x %zu blocks x %zu KiB; scrub pays "
              "every sweep/repair read into one token bucket — "
              "docs/ROBUSTNESS.md)\n",
              stripes, total, block >> 10);
  std::printf("\nscrub metrics: %s\n", scrub_metrics().to_json().c_str());
  return 0;
}
