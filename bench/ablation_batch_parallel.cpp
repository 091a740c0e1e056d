// Ablation — where to spend the threads: the paper's related work contrasts
// block-level (inter-stripe) parallelism [36]-[38] with PPM's matrix-level
// (intra-stripe) parallelism. This bench rebuilds a batch of stripes three
// ways on 4 real threads and reports the median measured wall time:
//   A. the whole-matrix plan per stripe, stripes in parallel on a pool
//      (block-level);
//   B. PPM's Algorithm 1 with T=4 lanes per stripe, stripes serial
//      (matrix-level);
//   C. Codec::decode_batch: the partitioned plan, stripes in parallel and
//      a small batch's stripes cut into slices (block-level parallelism +
//      PPM's cost reduction).
// The last line is the codec's metrics JSON.
#include <cstdio>
#include <memory>

#include "codec/codec.h"
#include "common/timer.h"

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Ablation", "stripe-level vs matrix-level parallelism");
  const std::size_t n = 16;
  const std::size_t r = 16;
  const unsigned lanes = 4;
  const unsigned w = SDCode::recommended_width(n, r);
  const SDCode code(n, r, 2, 2, w);
  ScenarioGenerator gen(0xAB4A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const std::size_t block = 32 * 1024;

  ThreadPool pool(lanes);
  const auto whole = CachedPlan::whole_matrix(code.parity_check(), g.scenario,
                                              SequencePolicy::kNormal);
  if (!whole) return 1;
  const auto one_slice =
      plan_slices(block, code.field().symbol_bytes(), /*threads=*/1);
  PpmOptions popts;
  popts.threads = lanes;
  const PpmDecoder alg1(code, popts);
  Codec codec(code, Codec::Options{.threads = lanes});

  std::printf("%8s  %12s %12s %12s  (measured, %u threads)\n", "stripes",
              "A:whole-par", "B:alg1-intra", "C:codec", lanes);
  for (const std::size_t batch : {1u, 2u, 4u, 8u, 16u}) {
    std::vector<std::unique_ptr<Stripe>> stripes;
    std::vector<std::uint8_t* const*> ptrs;
    std::vector<std::vector<std::uint8_t>> snaps;
    const TraditionalDecoder trad(code);
    for (std::size_t i = 0; i < batch; ++i) {
      stripes.push_back(std::make_unique<Stripe>(code, block));
      Rng rng(100 + i);
      stripes.back()->fill_data(rng);
      if (!trad.encode(stripes.back()->block_ptrs(), block)) return 1;
      ptrs.push_back(stripes.back()->block_ptrs());
      snaps.push_back(stripes.back()->snapshot());
    }
    const auto erase_all = [&] {
      for (const auto& st : stripes) st->erase(g.scenario);
    };
    const auto verify_all = [&] {
      for (std::size_t i = 0; i < batch; ++i) {
        if (!stripes[i]->equals(snaps[i])) std::exit(4);
      }
    };
    // One untimed, verified run of a layout (it also caches the codec's
    // plan), then the timed repetitions; returns the median seconds.
    const auto time_layout = [&](const auto& layout) {
      erase_all();
      layout();
      verify_all();
      std::vector<double> times;
      for (std::size_t rep = 0; rep < bench::reps(); ++rep) {
        erase_all();
        const Timer t;
        layout();
        times.push_back(t.seconds());
      }
      verify_all();
      return bench::median(std::move(times));
    };
    const double a = time_layout(
        [&] { whole->execute_sliced(ptrs, block, one_slice, &pool); });
    const double b = time_layout([&] {
      for (std::uint8_t* const* p : ptrs) {
        if (!alg1.decode(g.scenario, p, block)) std::exit(2);
      }
    });
    const double c = time_layout([&] {
      if (!codec.decode_batch(g.scenario, ptrs, block)) std::exit(3);
    });
    std::printf("%8zu  %10.3fms %10.3fms %10.3fms\n", batch, a * 1e3,
                b * 1e3, c * 1e3);
  }
  std::printf("\n(A runs C1 ops per stripe, one stripe per task; B runs "
              "min(C3,C4) ops with a serial H_rest per stripe; C runs "
              "min(C3,C4) ops and cuts a batch smaller than the pool into "
              "slices)\n");
  std::printf("\nmetrics: %s\n", codec.metrics_json().c_str());
  return 0;
}
