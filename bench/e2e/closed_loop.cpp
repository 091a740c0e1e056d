// The closed-loop workloads: one client issues the next operation as soon
// as the previous one has been verified.
//
//   decode-large   Codec::decode of one worst-case scenario on 32 MiB
//                  stripes (the paper's Fig. 9 setting)
//   rebuild-batch  Codec::decode_batch of 64 x 1 MiB stripes sharing a
//                  scenario, cycling 8 scenarios (the disk-rebuild path)
//   encode-write   Codec::encode of 8 MiB stripes (the write path)
//
// Only the library call is timed; erasing the blocks it recomputes and
// comparing them with the reference happen outside the timed window.
#include <memory>

#include "common/cpu.h"
#include "harness.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"
#include "workload/verify.h"

namespace e2e {

namespace {

using ppm::FailureScenario;

enum class Call { kDecode, kEncode, kDecodeBatch };

/// What a closed-loop workload runs. Ops rotate over `rotations` sets of
/// `stripes_per_op` stripes each. decode-large rotates over 4 stripes so
/// that its working set exceeds the last-level cache and every op streams
/// its stripe from memory, as in an array where a stripe is not decoded
/// twice in a row; on one cached stripe, an op's time would depend on how
/// much of the cache other tenants leave it.
struct Shape {
  std::size_t n;  ///< SD^{2,2}_{n,16}
  unsigned w;
  std::size_t block_bytes;
  Call call;
  std::size_t stripes_per_op;
  std::size_t rotations;
  std::size_t scenarios;  ///< worst-case scenarios cycled (decode only)
};

/// Set-up state and the steps of one closed-loop op.
class ClosedLoop {
 public:
  ClosedLoop(std::uint64_t seed, const Shape& shape)
      : shape_(shape),
        code_(cold_sd_code(shape.n, shape.w)),
        codec_(std::make_unique<ppm::Codec>(*code_)) {
    ppm::Rng rng(seed);
    ptrs_.resize(shape.rotations);
    for (std::size_t s = 0; s < shape.rotations * shape.stripes_per_op; ++s) {
      stripes_.push_back(
          std::make_unique<ppm::Stripe>(*code_, shape.block_bytes));
      stripes_.back()->fill_data(rng);
      codec_->encode(stripes_.back()->block_ptrs(), shape.block_bytes);
      references_.push_back(stripes_.back()->snapshot());
      ptrs_[s / shape.stripes_per_op].push_back(stripes_.back()->block_ptrs());
    }
    if (shape.call == Call::kEncode) {
      scenarios_.push_back(FailureScenario::encoding_of(*code_));
    } else {
      ppm::ScenarioGenerator gen(seed);
      for (std::size_t k = 0; k < shape.scenarios; ++k) {
        scenarios_.push_back(gen.sd_worst_case(*code_, 2, 2, 1).scenario);
      }
    }
    // Warm-up op: builds the plan and starts the codec's worker pool.
    prepare(0);
    run(0);
  }

  /// Erase what op `i` recomputes (untimed).
  void prepare(std::size_t i) {
    for (std::size_t s : stripes_of(i)) stripes_[s]->erase(scenario(i));
  }

  /// Op `i` through the public API (timed).
  bool run(std::size_t i) {
    const auto& ptrs = ptrs_[i % shape_.rotations];
    switch (shape_.call) {
      case Call::kDecode:
        return codec_->decode(scenario(i), ptrs[0], shape_.block_bytes);
      case Call::kEncode:
        return codec_->encode(ptrs[0], shape_.block_bytes);
      case Call::kDecodeBatch:
        return codec_->decode_batch(scenario(i), ptrs, shape_.block_bytes)
            .has_value();
    }
    return false;
  }

  /// Op `i` through the bench's traced mirror; its wall seconds, or < 0.
  double traced(std::size_t i, DecodeLayer& layer, ppm::ThreadPool& pool) {
    const auto& ptrs = ptrs_[i % shape_.rotations];
    return shape_.call == Call::kDecodeBatch
               ? layer.decode_batch(*codec_, scenario(i), ptrs,
                                    shape_.block_bytes, pool)
               : layer.decode_placed(*codec_, scenario(i), ptrs[0],
                                     shape_.block_bytes, pool);
  }

  /// Compare what op `i` recomputed with the reference (untimed).
  bool verify(std::size_t i) const {
    for (std::size_t s : stripes_of(i)) {
      if (!stripes_[s]->blocks_equal(references_[s], scenario(i).faulty())) {
        return false;
      }
    }
    return true;
  }

  /// True when every stripe matches its reference and the references
  /// satisfy every parity check.
  bool reference_consistent() const {
    for (std::size_t s = 0; s < stripes_.size(); ++s) {
      if (!stripes_[s]->equals(references_[s]) ||
          !ppm::stripe_consistent(*code_, stripes_[s]->block_ptrs(),
                                  shape_.block_bytes)) {
        return false;
      }
    }
    return true;
  }

  /// Flip a reference byte that op 0 (and every op with its stripes and
  /// scenario) compares.
  void corrupt_reference() {
    references_[0][scenario(0).faulty().front() * shape_.block_bytes] ^= 1;
  }

  const FailureScenario& scenario(std::size_t i) const {
    return scenarios_[i % scenarios_.size()];
  }
  const ppm::ErasureCode& code() const { return *code_; }
  std::size_t block_bytes() const { return shape_.block_bytes; }
  /// Stripe bytes one op covers (the throughput numerator).
  std::size_t op_bytes() const {
    return shape_.stripes_per_op * stripes_.front()->stripe_bytes();
  }
  /// Bytes one decoding thread cycles through: a batch task works on one
  /// stripe, a single-stripe op on every stripe the ops rotate over.
  std::size_t thread_working_set_bytes() const {
    return shape_.call == Call::kDecodeBatch
               ? stripes_.front()->stripe_bytes()
               : shape_.rotations * op_bytes();
  }

 private:
  /// Indices of the stripes op `i` works on.
  std::vector<std::size_t> stripes_of(std::size_t i) const {
    std::vector<std::size_t> out;
    const std::size_t first = (i % shape_.rotations) * shape_.stripes_per_op;
    for (std::size_t s = 0; s < shape_.stripes_per_op; ++s) {
      out.push_back(first + s);
    }
    return out;
  }

  Shape shape_;
  std::unique_ptr<ppm::SDCode> code_;
  std::unique_ptr<ppm::Codec> codec_;
  std::vector<std::unique_ptr<ppm::Stripe>> stripes_;
  std::vector<std::vector<std::uint8_t>> references_;
  std::vector<std::vector<std::uint8_t* const*>> ptrs_;  ///< per rotation
  std::vector<FailureScenario> scenarios_;
};

/// Set up, measure untraced for the run's (untraced share of) seconds and,
/// in a traced run, measure the traced mirror and the layer probes.
Report run_closed_loop(const Args& args, const Shape& shape) {
  Report report;
  report.traced = args.trace;
  std::unique_ptr<ClosedLoop> wl = timed_setup(
      [&] { return std::make_unique<ClosedLoop>(args.seed, shape); }, args,
      report);
  if (!wl->reference_consistent()) report.correct = false;
  if (args.self_check) wl->corrupt_reference();

  // One closed-loop phase: each verified op's timed seconds.
  const auto phase = [&](double seconds, auto&& timed_op) {
    Samples op_s;
    const auto start = Clock::now();
    for (std::size_t i = 0; seconds_between(start, Clock::now()) < seconds;
         ++i) {
      wl->prepare(i);
      const double s = timed_op(i);
      ++report.attempted;
      if (s < 0) {
        ++report.failed;
        continue;
      }
      if (!wl->verify(i)) {
        ++report.failed;
        report.correct = false;
      }
      op_s.add(s);
    }
    return op_s;
  };

  const Samples op_s = phase(
      args.trace ? args.seconds * (1 - kTracedShare) : args.seconds,
      [&](std::size_t i) {
        const auto t = Clock::now();
        const bool ok = wl->run(i);
        const double s = seconds_between(t, Clock::now());
        return ok ? s : -1.0;
      });
  report.end_to_end("p50_ms", op_s.median() * 1e3, "ms");
  report.end_to_end(
      "throughput_gbps",
      op_s.sum() > 0 ? static_cast<double>(op_s.size() * wl->op_bytes()) /
                           op_s.sum() / 1e9
                     : 0,
      "GB/s");
  report.note("p99_ms_diag", op_s.quantile(0.99) * 1e3, "ms");
  report.note("p99_ms_diag.samples", static_cast<double>(op_s.size()),
              "count");
  if (!args.trace) return report;

  DecodeLayer layer;
  ppm::ThreadPool pool(ppm::hardware_threads());
  phase(args.seconds * kTracedShare, [&](std::size_t i) {
    return wl->traced(i, layer, pool);
  });
  report_trace_overhead(op_s.median(), layer.op_seconds(), report);
  probe_kernels(wl->code().field().w(), wl->block_bytes(),
                wl->thread_working_set_bytes(), args.seed, report);
  layer.report(report.get("gf.memcpy_gbps"), report);
  std::vector<FailureScenario> sequence;
  for (std::size_t i = 0; i < op_s.size(); ++i) {
    sequence.push_back(wl->scenario(i));
  }
  probe_plan_fetch(wl->code(), sequence, args.scratch / "plans", report);
  report_unexercised_serving(report);
  return report;
}

}  // namespace

Report decode_large(const Args& args) {
  return run_closed_loop(args, {.n = 16,
                                .w = 16,
                                .block_bytes = 128 << 10,
                                .call = Call::kDecode,
                                .stripes_per_op = 1,
                                .rotations = 4,
                                .scenarios = 1});
}

Report rebuild_batch(const Args& args) {
  return run_closed_loop(args, {.n = 8,
                                .w = 8,
                                .block_bytes = 8 << 10,
                                .call = Call::kDecodeBatch,
                                .stripes_per_op = 64,
                                .rotations = 1,
                                .scenarios = 8});
}

Report encode_write(const Args& args) {
  return run_closed_loop(args, {.n = 8,
                                .w = 8,
                                .block_bytes = 64 << 10,
                                .call = Call::kEncode,
                                .stripes_per_op = 1,
                                .rotations = 1,
                                .scenarios = 1});
}

}  // namespace e2e
