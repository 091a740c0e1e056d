// ppm_fuzz — time-budgeted randomized stress harness.
//
// Generates random code instances (every family plus arbitrary random
// parity-check matrices), random failure scenarios (decodable or not) and
// random block sizes, and checks on every trial that:
//   * PPM and the traditional decoder agree on decodability;
//   * both restore the stripe byte-for-byte when decodable;
//   * the realized PPM op count equals the cost model's min(C3, C4);
//   * the stripe passes syndrome verification afterwards;
//   * the cached Codec plan for the scenario is planverify-clean, and a
//     random binary matrix's XOR schedule survives symbolic replay;
//   * the superoptimizer (ppm::xoropt) run over every random binary
//     schedule only accepts rewrites that re-prove — symbolic GF(2)
//     replay plus hazard analysis — and the optimized schedule decodes
//     byte-identically to the serial greedy one;
//   * the plan's parallel fan-out and the schedule's target units are
//     hazard-free (ppm::hazard) with a sane parallelism profile
//     (critical path <= total work, speedup bound >= 1);
//   * every decodable plan survives a plan-store round trip: serialize →
//     deserialize → planverify + hazard re-proof → byte-identical decode;
//   * a silently corrupted surviving block served through a fault-injecting
//     source is always caught by the resilient pipeline's CRC digests
//     (corruption_detected), and any claimed complete recovery is
//     byte-identical.
//
//   ./ppm_fuzz [seconds] [seed]     (defaults: 10 seconds, seed 1 —
//                                    deterministic for reproducibility)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <memory>

#include "ppm.h"

using namespace ppm;

namespace {

std::unique_ptr<ErasureCode> random_code(Rng& rng) {
  switch (rng.bounded(9)) {
    case 0: {
      // Kept small: every fresh SD geometry pays an exhaustive
      // coefficient certification at construction (cached per
      // process). This range covers both perfect geometries (n = 6)
      // and provably deficient ones (n = 8) while certifying in well
      // under a second each.
      const std::size_t n = 4 + rng.bounded(5);
      const std::size_t r = 4 + rng.bounded(5);
      const std::size_t m = 1 + rng.bounded(std::min<std::size_t>(2, n - 2));
      const std::size_t max_s =
          std::min<std::size_t>(2, (n - m) * r - 1);
      const std::size_t s = 1 + rng.bounded(max_s);
      return std::make_unique<SDCode>(n, r, m, s,
                                      SDCode::recommended_width(n, r));
    }
    case 1: {
      const std::size_t k = 4 + rng.bounded(16);
      const std::size_t l = 1 + rng.bounded(std::min<std::size_t>(4, k));
      return std::make_unique<LRCCode>(k, l, 1 + rng.bounded(3), 8);
    }
    case 2: {
      const std::size_t k = 4 + rng.bounded(12);
      const std::size_t l = 1 + rng.bounded(std::min<std::size_t>(3, k));
      return std::make_unique<XorbasLRCCode>(k, l, 1 + rng.bounded(4), 8);
    }
    case 3:
      return std::make_unique<RSCode>(4 + rng.bounded(16),
                                      1 + rng.bounded(4), 8);
    case 4:
      return std::make_unique<CRSCode>(3 + rng.bounded(8),
                                       1 + rng.bounded(3), 8);
    case 5: {
      constexpr std::size_t primes[] = {3, 5, 7, 11};
      return std::make_unique<EvenOddCode>(primes[rng.bounded(4)]);
    }
    case 6: {
      constexpr std::size_t primes[] = {3, 5, 7, 11};
      return std::make_unique<RDPCode>(primes[rng.bounded(4)]);
    }
    case 7: {
      constexpr std::size_t primes[] = {5, 7, 11};
      return std::make_unique<StarCode>(primes[rng.bounded(3)]);
    }
    default: {
      // Same certification-cost reasoning as the SD case above.
      const std::size_t m = 1 + rng.bounded(2);
      return std::make_unique<PMDSCode>(5 + rng.bounded(3), 4 + rng.bounded(4),
                                        m, 1 + rng.bounded(2), 8);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double budget = argc > 1 ? std::strtod(argv[1], nullptr) : 10;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  Rng rng(seed);
  Timer clock;

  std::size_t trials = 0;
  std::size_t decodable = 0;
  std::size_t rejected = 0;
  std::size_t verified_plans = 0;
  std::size_t verified_schedules = 0;
  std::size_t optimized_schedules = 0;
  std::size_t round_trips = 0;
  std::size_t corruption_drills = 0;
  std::size_t skipped_constructions = 0;
  while (clock.seconds() < budget) {
    ++trials;

    // Random binary matrix → XOR schedule → symbolic replay must prove it
    // hazard-free and equivalent to the matrix.
    {
      const std::size_t srows = 1 + rng.bounded(12);
      const std::size_t scols = 1 + rng.bounded(20);
      Matrix g(gf::field(8), srows, scols);
      for (std::size_t r = 0; r < srows; ++r) {
        for (std::size_t c = 0; c < scols; ++c) {
          g(r, c) = rng.bounded(100) < 45 ? 1 : 0;
        }
      }
      const auto sched = plan_xor_schedule(g);
      if (!sched.has_value()) {
        std::fprintf(stderr, "FUZZ FAIL (binary matrix rejected)\n");
        return 1;
      }
      const auto verdict = planverify::verify_xor_schedule(g, *sched);
      if (!verdict.ok()) {
        std::fprintf(stderr, "FUZZ FAIL (xor schedule verifier):\n%s\n",
                     planverify::to_json(verdict.violations).c_str());
        return 1;
      }
      // The planner's schedule must also be race-free as a parallel
      // program over target units, not just serially correct.
      const auto hz = hazard::analyze_schedule(*sched, g);
      if (!hz.ok() || hz.critical_path > hz.total_work ||
          hz.speedup_bound() < 1.0) {
        std::fprintf(stderr, "FUZZ FAIL (schedule hazard):\n%s\n",
                     planverify::to_json(hz.violations).c_str());
        return 1;
      }
      ++verified_schedules;

      // Superoptimizer drill: every schedule goes through the rewrite
      // pipeline. The result must carry a passing proof (an accepted
      // rewrite without one is the bug this drill exists to catch), cost
      // no more than the greedy input, keep honest books
      // (accepted + rejected == passes), and decode byte-identically to
      // the serial greedy schedule.
      const auto opt = xoropt::optimize(g, *sched);
      if (opt.stats.rewrites_accepted + opt.stats.rewrites_rejected !=
              opt.stats.passes ||
          opt.schedule.cost() > sched->cost() ||
          opt.schedule.naive_ops != sched->naive_ops) {
        std::fprintf(stderr, "FUZZ FAIL (xoropt stats incoherent)\n");
        return 1;
      }
      const auto proof = xoropt::prove(g, opt.schedule);
      if (!proof.empty()) {
        std::fprintf(stderr, "FUZZ FAIL (xoropt accepted unproven):\n%s\n",
                     planverify::to_json(proof).c_str());
        return 1;
      }
      {
        const std::size_t sbytes = 8 * (1 + rng.bounded(8));
        std::vector<std::vector<std::uint8_t>> source_data(
            scols, std::vector<std::uint8_t>(sbytes));
        std::vector<std::uint8_t*> source_ptrs(scols);
        for (std::size_t c = 0; c < scols; ++c) {
          for (auto& b : source_data[c]) {
            b = static_cast<std::uint8_t>(rng.bounded(256));
          }
          source_ptrs[c] = source_data[c].data();
        }
        std::vector<std::vector<std::uint8_t>> greedy_out(
            srows, std::vector<std::uint8_t>(sbytes));
        std::vector<std::vector<std::uint8_t>> opt_out(
            srows, std::vector<std::uint8_t>(sbytes));
        std::vector<std::uint8_t*> greedy_ptrs(srows);
        std::vector<std::uint8_t*> opt_ptrs(srows);
        for (std::size_t r = 0; r < srows; ++r) {
          greedy_ptrs[r] = greedy_out[r].data();
          opt_ptrs[r] = opt_out[r].data();
        }
        execute_xor_schedule(*sched, source_ptrs.data(), greedy_ptrs.data(),
                             sbytes);
        execute_xor_schedule(opt.schedule, srows, source_ptrs.data(),
                             opt_ptrs.data(), sbytes);
        for (std::size_t r = 0; r < srows; ++r) {
          if (greedy_out[r] != opt_out[r]) {
            std::fprintf(stderr,
                         "FUZZ FAIL (xoropt bytes diverge at row %zu)\n", r);
            return 1;
          }
        }
      }
      ++optimized_schedules;
    }
    // Construction is fail-soft: SD/PMDS geometries now pay an
    // exhaustive coefficient certification, and a randomly drawn
    // geometry may be degenerate or admit no certifiable tuple. Either
    // way the library throws — that is its contract, not a fuzz
    // finding — so skip the trial and keep drilling.
    std::unique_ptr<ErasureCode> code;
    try {
      code = random_code(rng);
    } catch (const std::exception&) {
      ++skipped_constructions;
      continue;
    }
    const std::size_t block =
        code->field().symbol_bytes() * (8 + rng.bounded(64));
    Stripe stripe(*code, block);
    Rng fill(seed + trials);
    stripe.fill_data(fill);
    const TraditionalDecoder trad(*code);
    if (!trad.encode(stripe.block_ptrs(), block)) {
      std::fprintf(stderr, "FUZZ FAIL (encode): %s\n", code->name().c_str());
      return 1;
    }
    const auto snap = stripe.snapshot();

    // Random failure set, possibly beyond tolerance.
    const std::size_t count = 1 + rng.bounded(code->check_rows() + 1);
    std::vector<std::size_t> faulty;
    while (faulty.size() < std::min(count, code->total_blocks() - 1)) {
      const std::size_t b = rng.bounded(code->total_blocks());
      if (std::find(faulty.begin(), faulty.end(), b) == faulty.end()) {
        faulty.push_back(b);
      }
    }
    const FailureScenario sc(faulty);

    stripe.erase(sc);
    const auto tr = trad.decode(sc, stripe.block_ptrs(), block);
    const bool trad_ok = tr.has_value() && stripe.equals(snap);

    std::memcpy(stripe.block(0), snap.data(), snap.size());
    stripe.erase(sc);
    PpmOptions opts;
    opts.threads = 1 + static_cast<unsigned>(rng.bounded(4));
    const PpmDecoder ppm_dec(*code, opts);
    const auto pr = ppm_dec.decode(sc, stripe.block_ptrs(), block);
    const bool ppm_ok = pr.has_value() && stripe.equals(snap);

    if (tr.has_value() != pr.has_value()) {
      std::fprintf(stderr, "FUZZ FAIL (decodability disagreement): %s\n",
                   code->name().c_str());
      return 1;
    }
    if (tr.has_value()) {
      ++decodable;
      if (!trad_ok || !ppm_ok) {
        std::fprintf(stderr, "FUZZ FAIL (bytes): %s\n", code->name().c_str());
        return 1;
      }
      const auto costs = analyze_costs(*code, sc);
      if (!costs.has_value() ||
          pr->stats.mult_xors != costs->ppm_best()) {
        std::fprintf(stderr, "FUZZ FAIL (cost model): %s\n",
                     code->name().c_str());
        return 1;
      }
      if (!stripe_consistent(*code, stripe.block_ptrs(), block)) {
        std::fprintf(stderr, "FUZZ FAIL (syndrome): %s\n",
                     code->name().c_str());
        return 1;
      }
      // Every plan the codec would cache must be verifier-clean.
      Codec codec(*code);
      const auto plan = codec.plan_for(sc);
      if (plan == nullptr) {
        std::fprintf(stderr, "FUZZ FAIL (codec plan missing): %s\n",
                     code->name().c_str());
        return 1;
      }
      const auto verdict = planverify::verify_plan(*code, sc, *plan);
      if (!verdict.ok()) {
        std::fprintf(stderr, "FUZZ FAIL (plan verifier): %s\n%s\n",
                     code->name().c_str(),
                     planverify::to_json(verdict.violations).c_str());
        return 1;
      }
      // And its group fan-out must be provably race-free under every
      // interleaving, with a coherent parallelism profile.
      const auto hz = hazard::analyze_plan(*plan);
      if (!hz.ok() || hz.critical_path > hz.total_work ||
          (hz.critical_path == 0) != (hz.total_work == 0) ||
          hz.speedup_bound() < 1.0) {
        std::fprintf(stderr, "FUZZ FAIL (plan hazard): %s\n%s\n",
                     code->name().c_str(),
                     planverify::to_json(hz.violations).c_str());
        return 1;
      }
      ++verified_plans;
      // Plan-store round trip: serialize -> deserialize -> re-prove ->
      // byte-identical decode against the fresh plan.
      const auto bytes = planstore::serialize_plan(*code, sc, *plan);
      std::string err;
      auto stored = planstore::deserialize_plan(bytes, *code, &err);
      if (!stored.has_value()) {
        std::fprintf(stderr, "FUZZ FAIL (store round trip): %s: %s\n",
                     code->name().c_str(), err.c_str());
        return 1;
      }
      const auto rt_verdict =
          planverify::verify_plan(*code, sc, stored->plan);
      const auto rt_hz = hazard::analyze_plan(stored->plan);
      if (!rt_verdict.ok() || !rt_hz.ok() ||
          stored->stored_profile != plan->profile() ||
          !std::equal(stored->scenario.faulty().begin(),
                      stored->scenario.faulty().end(), sc.faulty().begin(),
                      sc.faulty().end())) {
        std::fprintf(stderr, "FUZZ FAIL (round-trip re-verify): %s\n",
                     code->name().c_str());
        return 1;
      }
      stripe.erase(sc);
      stored->plan.execute(stripe.block_ptrs(), block);
      if (!stripe.equals(snap)) {
        std::fprintf(stderr, "FUZZ FAIL (round-trip decode bytes): %s\n",
                     code->name().c_str());
        return 1;
      }
      ++round_trips;

      // Corruption drill: serve the stripe through a fault-injecting
      // source that silently flips bytes in one surviving block. With
      // per-block digests the resilient pipeline must notice (CRC
      // mismatch -> corruption_detected) and, whenever it claims complete
      // recovery, still produce the original bytes.
      {
        // Victim pool: survivors the plan actually reads — a block no
        // sub-plan touches is never fetched, so its corruption is
        // invisible by design (scrubbing, not decoding, owns that case).
        std::vector<std::size_t> read_set;
        const auto collect = [&](const SubPlan& sub) {
          for (const std::size_t s : sub.survivors()) {
            if (!sc.contains(s) &&
                std::find(read_set.begin(), read_set.end(), s) ==
                    read_set.end()) {
              read_set.push_back(s);
            }
          }
        };
        for (const SubPlan& sub : plan->groups()) collect(sub);
        if (plan->rest().has_value()) collect(*plan->rest());
        if (read_set.empty()) continue;
        const std::size_t victim =
            read_set[rng.bounded(read_set.size())];
        const auto backing =
            campaign::snapshot_ptrs(snap, code->total_blocks(), block);
        const auto digests =
            campaign::digests_of(snap, code->total_blocks(), block);
        io::MemoryBlockSource mem(backing.data(), code->total_blocks(),
                                  block);
        io::FaultInjectingSource source(mem);
        io::FaultSpec spec;
        spec.corrupt = true;
        spec.corrupt_offset = rng.bounded(block);
        spec.corrupt_bytes =
            1 + rng.bounded(std::min<std::size_t>(8, block -
                                                     spec.corrupt_offset));
        source.set_fault(victim, spec);

        stripe.erase(sc);
        const auto out = codec.decode_resilient(sc, source,
                                                stripe.block_ptrs(), block,
                                                {}, digests);
        if (out.corruption_detected == 0) {
          std::fprintf(stderr,
                       "FUZZ FAIL (silent corruption undetected): %s "
                       "block %zu\n",
                       code->name().c_str(), victim);
          return 1;
        }
        if (out.complete && !stripe.equals(snap)) {
          std::fprintf(stderr,
                       "FUZZ FAIL (corruption drill bytes): %s block %zu\n",
                       code->name().c_str(), victim);
          return 1;
        }
        ++corruption_drills;
        std::memcpy(stripe.block(0), snap.data(), snap.size());
      }
    } else {
      ++rejected;
      std::memcpy(stripe.block(0), snap.data(), snap.size());
    }
  }
  std::printf("ppm_fuzz: %zu trials in %.1fs (%zu decodable, %zu beyond "
              "tolerance, %zu constructions skipped), %zu plans + %zu XOR "
              "schedules verifier-clean, "
              "%zu schedules superoptimized proof-clean, "
              "%zu store round trips, %zu corruption drills, 0 failures\n",
              trials, clock.seconds(), decodable, rejected,
              skipped_constructions, verified_plans, verified_schedules,
              optimized_schedules, round_trips, corruption_drills);
  return 0;
}
