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
//
// A third table sweeps the region tile of SubPlan::execute on 4 real
// threads, for the decode-large plan (SD^{2,2}_{16,16} w=16, 128 KiB
// blocks) and the encode plan (SD^{2,2}_{8,16} w=8, 64 KiB blocks); its
// winner sets SubPlan::kTileBytes.
#include <cstdio>
#include <cstring>
#include <memory>

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

// SubPlan::execute's loops with the tile as a parameter instead of
// SubPlan::kTileBytes: the same kernels, on tables prepared once per
// nonzero, so only the tile differs.
class TiledSubPlan {
 public:
  explicit TiledSubPlan(const SubPlan& plan)
      : plan_(&plan), finv_(prepare(plan.finv())), s_(prepare(plan.s())) {}

  void execute(std::uint8_t* const* blocks, std::size_t bytes,
               std::size_t tile) const {
    std::vector<std::uint8_t*> surv;
    for (const std::size_t b : plan_->survivors()) surv.push_back(blocks[b]);
    const auto unknowns = plan_->unknowns();
    if (plan_->sequence() == Sequence::kMatrixFirst) {
      for (std::size_t off = 0; off < bytes; off += tile) {
        const std::size_t len = std::min(tile, bytes - off);
        for (std::size_t i = 0; i < unknowns.size(); ++i) {
          apply(finv_, i, surv.data(), off, blocks[unknowns[i]] + off, len);
        }
      }
      return;
    }
    const std::size_t n = unknowns.size();
    const std::size_t width = std::min(tile, bytes);
    std::vector<std::uint8_t> scratch(n * width);
    std::vector<std::uint8_t*> tmp(n);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = scratch.data() + i * width;
    for (std::size_t off = 0; off < bytes; off += tile) {
      const std::size_t len = std::min(tile, bytes - off);
      for (std::size_t i = 0; i < n; ++i) {
        apply(s_, i, surv.data(), off, tmp[i], len);
      }
      for (std::size_t i = 0; i < n; ++i) {
        apply(finv_, i, tmp.data(), 0, blocks[unknowns[i]] + off, len);
      }
    }
  }

 private:
  struct Term {
    std::size_t col;
    gf::Element c;
    std::size_t at;  // offset of its tables
  };
  struct Prepared {
    std::vector<std::vector<Term>> rows;
    std::vector<std::uint8_t> tables;
    const gf::RegionKernels* k;
  };

  static Prepared prepare(const Matrix& m) {
    const gf::Field& f = m.field();
    const std::size_t stride = gf::operand_bytes(f.w());
    Prepared p{std::vector<std::vector<Term>>(m.rows()),
               std::vector<std::uint8_t>(m.nonzeros() * stride),
               &gf::kernels_for(f.w(), detect_isa())};
    std::size_t at = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m(i, j) == 0) continue;
        f.prepare(m(i, j), p.tables.data() + at);
        p.rows[i].push_back({j, m(i, j), at});
        at += stride;
      }
    }
    return p;
  }

  static void apply(const Prepared& p, std::size_t row,
                    std::uint8_t* const* srcs, std::size_t off,
                    std::uint8_t* dst, std::size_t len) {
    if (p.rows[row].empty()) std::memset(dst, 0, len);
    bool first = true;
    for (const Term& t : p.rows[row]) {
      const std::uint8_t* src = srcs[t.col] + off;
      if (t.c != 1) {
        (first ? p.k->mult_over : p.k->mult_xor)(dst, src, len,
                                                 p.tables.data() + t.at);
      } else if (first) {
        std::memcpy(dst, src, len);
      } else {
        p.k->xor_region(dst, src, len);
      }
      first = false;
    }
  }

  const SubPlan* plan_;
  Prepared finv_;
  Prepared s_;
};

void tile_sweep() {
  struct Case {
    const char* name;
    std::unique_ptr<SDCode> code;
    bool encode;
    std::size_t block;
  };
  Case cases[] = {
      {"decode-large: SD^{2,2}_{16,16} w=16, worst-case 2 disks + 2 sectors",
       std::make_unique<SDCode>(16, 16, 2, 2, 16), false, 128 << 10},
      {"encode: SD^{2,2}_{8,16} w=8, all parity",
       std::make_unique<SDCode>(8, 16, 2, 2, 8), true, 64 << 10},
  };
  ThreadPool pool(4);
  const std::size_t tiles[] = {2 << 10, 4 << 10, 8 << 10, 16 << 10,
                               256 << 10};
  for (Case& c : cases) {
    const SDCode& code = *c.code;
    const FailureScenario scenario =
        c.encode ? FailureScenario::encoding_of(code)
                 : ScenarioGenerator(1).sd_worst_case(code, 2, 2, 1).scenario;
    Codec codec(code);
    const auto plan = codec.plan_for(scenario);
    std::vector<TiledSubPlan> subs;
    for (const SubPlan& g : plan->groups()) subs.emplace_back(g);
    if (plan->rest().has_value()) subs.emplace_back(*plan->rest());

    Stripe stripe(code, c.block);
    Rng rng(0xAB6D);
    stripe.fill_data(rng);
    const auto ranges =
        plan_slices(c.block, code.field().symbol_bytes(), 4);
    std::vector<std::vector<std::uint8_t*>> views;
    for (const SliceRange& r : ranges) {
      views.emplace_back();
      for (std::size_t b = 0; b < code.total_blocks(); ++b) {
        views.back().push_back(stripe.block(b) + r.offset);
      }
    }
    std::printf("\nTile sweep, 4 threads x 1 slice: %s, %zu KiB blocks "
                "(%zu ops); SubPlan::kTileBytes = %zu KiB\n",
                c.name, c.block >> 10, plan->cost(),
                SubPlan::kTileBytes >> 10);
    std::printf("%8s %10s %10s\n", "tile", "ms/stripe", "op-GB/s");
    for (const std::size_t tile : tiles) {
      std::vector<double> samples;
      const Timer budget;
      while (samples.size() < 20 || budget.seconds() < 0.5) {
        const Timer t;
        TaskGroup group(pool);
        for (std::size_t i = 0; i < ranges.size(); ++i) {
          group.add([&, i] {
            for (const TiledSubPlan& sub : subs) {
              sub.execute(views[i].data(), ranges[i].bytes, tile);
            }
          });
        }
        group.wait();
        samples.push_back(t.seconds());
      }
      const double sec = bench::median(std::move(samples));
      std::printf("%7zuK %10.3f %10.2f\n", tile >> 10, sec * 1e3,
                  static_cast<double>(plan->cost() * c.block) / sec / 1e9);
    }
  }
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
  tile_sweep();
  return 0;
}
