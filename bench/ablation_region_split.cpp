// Ablation — matrix-level (PPM) vs block-level (region-split) parallelism
// *within one stripe*: the head-to-head the paper's related work sketches
// ([36]-[38] vs PPM). Region splitting parallelizes everything, including
// the serial H_rest tail PPM owns, but executes the full whole-matrix
// operation count; PPM executes min(C3, C4) < C1 but joins before H_rest.
// Modeled times put both on the same T virtual lanes.
//
// A second table measures the combination on real threads: one codec plan
// executed serially and as 2 and 4 region slices on a ThreadPool, per
// block size. Where the slices stop losing to serial sets
// Codec::kMinSliceWork, the work below which Codec runs a stripe whole.
#include <cstdio>

#include "codec/codec.h"
#include "common/timer.h"
#include "decode/block_parallel_decoder.h"
#include "parallel/task_group.h"

#include "bench_common.h"

using namespace ppm;

namespace {

/// Median wall seconds of `plan` executed on `stripe` as `slices` region
/// slices, one pool task each (one slice runs in the caller).
double sliced_seconds(const CachedPlan& plan, Stripe& stripe,
                      unsigned slices, ThreadPool& pool) {
  const std::size_t block = stripe.block_bytes();
  const auto ranges = plan_slices(
      block, stripe.code().field().symbol_bytes(), slices);
  std::vector<std::vector<std::uint8_t*>> views;
  for (const SliceRange& r : ranges) {
    views.emplace_back();
    for (std::size_t b = 0; b < stripe.code().total_blocks(); ++b) {
      views.back().push_back(stripe.block(b) + r.offset);
    }
  }
  std::vector<double> samples;
  const Timer budget;
  while (samples.size() < 20 || budget.seconds() < 0.2) {
    const Timer t;
    if (ranges.size() == 1) {
      plan.execute(stripe.block_ptrs(), block);
    } else {
      TaskGroup group(pool);
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        group.add([&, i] { plan.execute(views[i].data(), ranges[i].bytes); });
      }
      group.wait();
    }
    samples.push_back(t.seconds());
  }
  return bench::median(std::move(samples));
}

void slice_floor_sweep() {
  const SDCode code(8, 16, 2, 2, 8);
  Codec codec(code);
  const auto plan = codec.plan_for(FailureScenario::encoding_of(code));
  ThreadPool pool(4);
  std::printf("\nReal threads: SD^{2,2}_{8,16} w=8 encode plan (%zu ops), "
              "median ms per stripe\n",
              plan->cost());
  std::printf("%8s %9s  %9s %9s %9s\n", "block", "work-MB", "serial",
              "2 slices", "4 slices");
  for (const std::size_t block :
       {4u << 10, 8u << 10, 16u << 10, 32u << 10, 64u << 10, 128u << 10}) {
    Stripe stripe(code, block);
    Rng rng(0xAB6C + block);
    stripe.fill_data(rng);
    std::printf("%7zuK %9.1f ", block >> 10,
                static_cast<double>(plan->cost() * block) / 1e6);
    for (const unsigned slices : {1u, 2u, 4u}) {
      std::printf(" %9.3f", sliced_seconds(*plan, stripe, slices, pool) * 1e3);
    }
    std::printf("\n");
  }
  std::printf("(Codec::kMinSliceWork = %.1f MB of region-op work per "
              "slice)\n",
              static_cast<double>(Codec::kMinSliceWork) / 1e6);
}

}  // namespace

int main() {
  bench::banner("Ablation", "PPM (matrix-level) vs region-split (block-level)");
  const std::size_t r = 16;
  const unsigned t = 4;
  std::printf("%4s %2s %2s  %10s %10s %10s %10s  %8s %8s\n", "n", "m", "s",
              "serial", "ppm@4", "split@4", "both*", "ppm-ops", "C-ops");
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t s : {1u, 2u}) {
      for (const std::size_t n : {8u, 16u}) {
        const unsigned w = SDCode::recommended_width(n, r);
        const SDCode code(n, r, m, s, w);
        const std::size_t block =
            bench::block_bytes_for(n * r, code.field().symbol_bytes());
        Stripe stripe(code, block);
        Rng rng(0xAB6A + n);
        stripe.fill_data(rng);
        const TraditionalDecoder trad(code);
        if (!trad.encode(stripe.block_ptrs(), block)) return 1;
        ScenarioGenerator gen(0xAB6B + n * 100 + m * 10 + s);
        const auto g = gen.sd_worst_case(code, m, s, 1);

        PpmOptions popts;
        popts.threads = 1;  // clean serial task times for the lane model
        const PpmDecoder ppm_dec(code, popts);
        const BlockParallelDecoder split_dec(code, t, SequencePolicy::kNormal,
                                             /*sequential=*/true);

        // Warm-up.
        stripe.erase(g.scenario);
        if (!trad.decode(g.scenario, stripe.block_ptrs(), block)) return 1;

        std::vector<double> t_serial;
        std::vector<double> t_ppm;
        std::vector<double> t_split;
        std::vector<double> t_both;
        std::size_t ppm_ops = 0;
        std::size_t c_ops = 0;
        for (std::size_t rep = 0; rep < bench::reps(); ++rep) {
          stripe.erase(g.scenario);
          const auto tr = trad.decode(g.scenario, stripe.block_ptrs(), block);
          if (!tr) return 1;
          t_serial.push_back(tr->seconds);
          c_ops = tr->stats.mult_xors;

          stripe.erase(g.scenario);
          const auto pr =
              ppm_dec.decode(g.scenario, stripe.block_ptrs(), block);
          if (!pr) return 1;
          t_ppm.push_back(pr->modeled_seconds(t));
          ppm_ops = pr->stats.mult_xors;
          // "both": PPM's parallel groups + the H_rest tail divided by the
          // lanes (region-splitting the rest) — the combination a real
          // multi-core implementation would ship.
          t_both.push_back(pr->plan_seconds +
                           (pr->modeled_seconds(t) - pr->plan_seconds -
                            pr->rest_seconds) +
                           pr->rest_seconds / t);

          stripe.erase(g.scenario);
          const auto sr =
              split_dec.decode(g.scenario, stripe.block_ptrs(), block);
          if (!sr) return 1;
          t_split.push_back(sr->modeled_seconds());
        }
        std::printf("%4zu %2zu %2zu  %8.2fms %8.2fms %8.2fms %8.2fms  %8zu "
                    "%8zu\n",
                    n, m, s, bench::median(std::move(t_serial)) * 1e3,
                    bench::median(std::move(t_ppm)) * 1e3,
                    bench::median(std::move(t_split)) * 1e3,
                    bench::median(std::move(t_both)) * 1e3, ppm_ops, c_ops);
      }
    }
  }
  std::printf("\n(*both = PPM partition with region-split H_rest. "
              "Region-split runs C1 ops but has no serial tail; PPM runs "
              "min(C3,C4) < C1 with a serial H_rest; the combination takes "
              "both wins.)\n");
  slice_floor_sweep();
  return 0;
}
