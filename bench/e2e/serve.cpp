// serve-degraded: degraded reads of small objects through DecodeServer.
//
// SD^{2,2}_{8,16} over GF(2^8) with 4 KiB blocks. Each request decodes one
// stripe under a worst-case scenario drawn Zipf(1.0) from 512, so the
// default 64-plan cache both hits and misses, with a plan store behind it.
// Each request reads its survivors through its own FaultInjectingSource,
// rolled from (seed, request index): 2% of reads are transient 2 ms
// stragglers, which the server hedges. Expected CRCs are attached.
//
// One generator thread submits and a second collects completions. The
// fixed-rate phase is open loop at 200 req/s, with latency timed from each
// request's due time so a stall also delays the requests behind it. The
// saturation phase keeps kSaturationClients requests outstanding (closed
// loop) and measures the completion rate the server sustains.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common/cpu.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "harness.h"
#include "io/fault_injection.h"
#include "serve/server.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"
#include "workload/verify.h"

namespace e2e {

namespace {

using ppm::FailureScenario;

constexpr std::size_t kBlockBytes = 4 << 10;
constexpr std::size_t kScenarios = 512;
constexpr double kFixedRate = 200;  // req/s
/// Shares of an untraced run's seconds; a traced run has no saturation
/// phase and splits its seconds by kTracedShare instead.
constexpr double kFixedShare = 0.6;
constexpr double kSaturationShare = 0.4;
/// Outstanding requests in the saturation phase: enough to keep both
/// dispatchers busy, far below the queue depth that would reject.
constexpr std::size_t kSaturationClients = 16;
constexpr double kStragglerShare = 0.02;
constexpr std::chrono::milliseconds kStragglerDelay{2};
/// Request buffers: above the server's queue depth plus its dispatchers,
/// so the generator never waits for one before the server rejects.
constexpr std::size_t kSlots = 96;
/// Decodes a traced run replays through DecodeLayer.
constexpr std::size_t kDecodeProbes = 200;

/// Inverse-CDF sampler of ranks 0..n-1 with P(k) proportional to
/// 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(ppm::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Bench-owned decorator timing every survivor read of one request (the
/// io layer in traced runs). Reactor threads call read() concurrently.
class TimedSource final : public ppm::io::BlockSource {
 public:
  explicit TimedSource(ppm::io::BlockSource& inner) : inner_(&inner) {}
  std::size_t block_count() const override { return inner_->block_count(); }
  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  ppm::io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                           std::size_t bytes) override {
    const auto start = Clock::now();
    const ppm::io::ReadStatus status = inner_->read(block, dst, bytes);
    const double us = seconds_between(start, Clock::now()) * 1e6;
    const std::lock_guard<std::mutex> lock(mutex_);
    read_us_.push_back(us);
    if (status != ppm::io::ReadStatus::kOk) ++failures_;
    return status;
  }
  /// Quiescent reads only (after the request completed).
  const std::vector<double>& read_us() const { return read_us_; }
  std::size_t failures() const { return failures_; }

 private:
  ppm::io::BlockSource* inner_;
  std::mutex mutex_;
  std::vector<double> read_us_;
  std::size_t failures_ = 0;
};

/// One request buffer and everything its request references.
struct Slot {
  std::unique_ptr<ppm::Stripe> stripe;
  std::unique_ptr<ppm::io::FaultInjectingSource> faults;
  std::unique_ptr<TimedSource> timed;
  std::size_t scenario = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<ppm::serve::OverlapResult> result;
};

/// What one phase measured.
struct Phase {
  Clock::time_point start, last_done;
  std::size_t attempted = 0, rejected = 0, incomplete = 0, mismatched = 0;
  Samples latency_ms, late_ms;
  std::vector<std::size_t> scenarios;  // in submission order
  // Traced phases only.
  Samples queue_ms, fetch_ms, solve_ms, tail_ms, read_us;
  std::size_t reads = 0, read_failures = 0, overlapped = 0, fallbacks = 0;
  std::size_t hedges = 0, hedges_won = 0;
  double batch_size = 0;
};

class Server {
 public:
  Server(std::uint64_t seed, const std::filesystem::path& store_dir)
      : seed_(seed),
        code_(cold_sd_code(8, 8)),
        codec_(std::make_unique<ppm::Codec>(*code_)),
        pristine_(*code_, kBlockBytes),
        zipf_(kScenarios, 1.0),
        stream_(seed ^ 0x5E7E5EEDull) {
    std::filesystem::remove_all(store_dir);
    codec_->attach_store(store_dir.string());
    ppm::Rng rng(seed);
    pristine_.fill_data(rng);
    codec_->encode(pristine_.block_ptrs(), kBlockBytes);
    reference_ = pristine_.snapshot();
    for (std::size_t b = 0; b < code_->total_blocks(); ++b) {
      crc_.push_back(ppm::crc32(pristine_.block(b), kBlockBytes));
      backing_.push_back(pristine_.block(b));
    }
    inner_ = std::make_unique<ppm::io::MemoryBlockSource>(
        backing_.data(), backing_.size(), kBlockBytes);
    ppm::ScenarioGenerator gen(seed);
    while (scenarios_.size() < kScenarios) {
      FailureScenario s = gen.sd_worst_case(*code_, 2, 2, 1).scenario;
      if (std::find(scenarios_.begin(), scenarios_.end(), s) ==
          scenarios_.end()) {
        scenarios_.push_back(std::move(s));
      }
    }
    slots_.resize(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_[i].stripe = std::make_unique<ppm::Stripe>(*code_, kBlockBytes);
      free_.push_back(i);
    }
    server_ = std::make_unique<ppm::serve::DecodeServer>(*codec_);
    // Warm-up: a short phase starts the server's and the library's thread
    // pools and the plan store.
    run(kFixedRate, 0.05, false);
  }

  /// Submit requests for `seconds`: due every 1/rate seconds, or with
  /// rate 0 whenever fewer than kSaturationClients are outstanding. Then
  /// wait until every admitted request has completed.
  Phase run(double rate, double seconds, bool traced);

  bool reference_consistent() {
    return pristine_.equals(reference_) &&
           ppm::stripe_consistent(*code_, pristine_.block_ptrs(),
                                  kBlockBytes);
  }
  void corrupt_reference() {
    // The most popular scenario's first lost block.
    reference_[scenarios_[0].faulty().front() * kBlockBytes] ^= 1;
  }
  const ppm::ErasureCode& code() const { return *code_; }
  const FailureScenario& scenario(std::size_t k) const {
    return scenarios_[k];
  }

  /// Decode `scenario` into a spare stripe through the traced mirror and
  /// byte-verify it; false on a failed or wrong decode.
  bool probe_decode(const FailureScenario& scenario, DecodeLayer& layer,
                    ppm::ThreadPool& pool) {
    ppm::Stripe& s = *slots_[0].stripe;
    for (std::size_t b = 0; b < code_->total_blocks(); ++b) {
      std::memcpy(s.block(b), pristine_.block(b), kBlockBytes);
    }
    s.erase(scenario);
    return layer.decode_placed(*codec_, scenario, s.block_ptrs(), kBlockBytes,
                               pool) >= 0 &&
           s.blocks_equal(reference_, scenario.faulty());
  }

 private:
  /// The generator side of run(): prepare and submit every request of the
  /// phase, handing admitted ones to the collector.
  void generate(double rate, double seconds, bool traced, Phase& phase);
  /// Take a free slot once fewer than `outstanding` are in use, draw the
  /// request's scenario, roll its fault schedule and poison the blocks it
  /// must recover.
  std::size_t prepare(std::size_t outstanding, bool traced);
  /// Record a completed request and free its slot.
  void complete(std::size_t slot, Clock::time_point done, Phase& phase);

  std::uint64_t seed_;
  std::unique_ptr<ppm::SDCode> code_;
  std::unique_ptr<ppm::Codec> codec_;
  ppm::Stripe pristine_;
  std::vector<std::uint8_t> reference_;
  std::vector<std::uint32_t> crc_;
  std::vector<const std::uint8_t*> backing_;
  std::unique_ptr<ppm::io::MemoryBlockSource> inner_;
  std::vector<FailureScenario> scenarios_;
  Zipf zipf_;
  ppm::Rng stream_;  ///< scenario draws, in request order
  std::size_t next_request_ = 0;
  std::vector<Slot> slots_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> free_;      ///< LIFO: hot buffers are reused
  std::deque<std::size_t> submitted_;  ///< admitted, not yet collected
  bool generating_ = false;

  std::unique_ptr<ppm::serve::DecodeServer> server_;  ///< last: stops first
};

std::size_t Server::prepare(std::size_t outstanding, bool traced) {
  std::size_t i = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return !free_.empty() && kSlots - free_.size() < outstanding;
    });
    i = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[i];
  slot.scenario = zipf_(stream_);
  const FailureScenario& scenario = scenarios_[slot.scenario];
  ppm::io::FaultInjectingSource::CampaignOptions campaign;
  campaign.delay = kStragglerShare;
  campaign.delay_ns = kStragglerDelay;
  campaign.delay_attempts = 1;
  ppm::Rng faults(seed_ * 0x9E3779B97F4A7C15ull + next_request_++);
  slot.faults = std::make_unique<ppm::io::FaultInjectingSource>(*inner_);
  slot.faults->roll_campaign(
      campaign, faults,
      std::vector<std::size_t>(scenario.faulty().begin(),
                               scenario.faulty().end()));
  slot.timed = traced ? std::make_unique<TimedSource>(*slot.faults) : nullptr;
  slot.stripe->erase(scenario);
  return i;
}

void Server::complete(std::size_t i, Clock::time_point done, Phase& phase) {
  Slot& slot = slots_[i];
  const ppm::serve::OverlapResult r = slot.result.get();
  const FailureScenario& scenario = scenarios_[slot.scenario];
  phase.latency_ms.add(seconds_between(slot.due, done) * 1e3);
  phase.last_done = std::max(phase.last_done, done);
  if (!r.complete) {
    ++phase.incomplete;
  } else if (!slot.stripe->blocks_equal(reference_, scenario.faulty())) {
    ++phase.mismatched;
  }
  if (slot.timed != nullptr) {
    const double e2e_ns = seconds_between(slot.submitted, done) * 1e9;
    phase.queue_ms.add((e2e_ns - static_cast<double>(r.total_ns)) / 1e6);
    std::int64_t last_solve = r.first_solve_start_ns;
    for (const ppm::serve::GroupTiming& g : r.groups) {
      last_solve = std::max(last_solve, g.solve_end_ns);
    }
    if (r.last_read_complete_ns >= 0) {
      phase.fetch_ms.add(static_cast<double>(r.last_read_complete_ns) / 1e6);
    }
    if (r.first_solve_start_ns >= 0) {
      phase.solve_ms.add(
          static_cast<double>(last_solve - r.first_solve_start_ns) / 1e6);
      phase.tail_ms.add(static_cast<double>(r.total_ns - last_solve) / 1e6);
    }
    phase.overlapped += r.overlapped ? 1 : 0;
    phase.fallbacks += r.fallback ? 1 : 0;
    phase.hedges += r.hedges_launched;
    phase.hedges_won += r.hedges_won;
    for (const double us : slot.timed->read_us()) phase.read_us.add(us);
    phase.reads += slot.timed->read_us().size();
    phase.read_failures += slot.timed->failures();
  }
  slot.timed.reset();
  slot.faults.reset();
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(i);
  cv_.notify_all();
}

Phase Server::run(double rate, double seconds, bool traced) {
  Phase phase;
  const ppm::ServeMetrics& metrics = ppm::serve_metrics();
  const std::uint64_t batches = metrics.batches.value();
  const std::uint64_t batched = metrics.batched_requests.value();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    generating_ = true;
  }

  // Collector: stamps each request when its future turns ready (polling
  // every pending future, so out-of-order completions are stamped when
  // they happen), then verifies it outside the stamped interval.
  std::thread collector([&] {
    std::vector<std::size_t> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (pending.empty()) {
          cv_.wait(lock, [&] { return !submitted_.empty() || !generating_; });
        }
        while (!submitted_.empty()) {
          pending.push_back(submitted_.front());
          submitted_.pop_front();
        }
        if (pending.empty() && !generating_) return;
      }
      if (pending.empty()) continue;
      slots_[pending.front()].result.wait_for(std::chrono::microseconds(100));
      const auto now = Clock::now();
      std::vector<std::size_t> done;
      for (auto it = pending.begin(); it != pending.end();) {
        if (slots_[*it].result.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done.push_back(*it);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      for (const std::size_t i : done) complete(i, now, phase);
    }
  });

  // The collector exits once generation has stopped and nothing is
  // pending; stop and join it on every exit path, exceptions included.
  const auto stop_collector = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      generating_ = false;
    }
    cv_.notify_all();
    collector.join();
  };
  try {
    generate(rate, seconds, traced, phase);
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();

  const std::uint64_t phase_batches = metrics.batches.value() - batches;
  phase.batch_size =
      phase_batches == 0
          ? 0
          : static_cast<double>(metrics.batched_requests.value() - batched) /
                static_cast<double>(phase_batches);
  return phase;
}

void Server::generate(double rate, double seconds, bool traced, Phase& phase) {
  const bool paced = rate > 0;
  phase.start = Clock::now() + std::chrono::milliseconds(1);
  phase.last_done = phase.start;
  const auto end = phase.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  const auto period = std::chrono::duration<double>(paced ? 1.0 / rate : 0);
  for (std::size_t n = 0;; ++n) {
    const auto due = phase.start +
                     std::chrono::duration_cast<Clock::duration>(period * n);
    if (due >= end || (!paced && Clock::now() >= end)) break;
    const std::size_t i = prepare(paced ? kSlots : kSaturationClients, traced);
    Slot& slot = slots_[i];
    std::this_thread::sleep_until(due);
    slot.submitted = Clock::now();
    slot.due = paced ? due : slot.submitted;
    phase.late_ms.add(seconds_between(slot.due, slot.submitted) * 1e3);
    phase.scenarios.push_back(slot.scenario);
    ++phase.attempted;
    ppm::serve::ServeRequest request;
    request.scenario = scenarios_[slot.scenario];
    request.source = traced ? static_cast<ppm::io::BlockSource*>(slot.timed.get())
                            : slot.faults.get();
    request.blocks = slot.stripe->block_ptrs();
    request.block_bytes = kBlockBytes;
    request.expected_crc = crc_;
    auto admitted = server_->submit(std::move(request));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (admitted.has_value()) {
      slot.result = std::move(*admitted);
      submitted_.push_back(i);
    } else {
      ++phase.rejected;
      free_.push_back(i);
    }
    cv_.notify_all();
  }
}

void count(const Phase& phase, Report& report) {
  report.attempted += phase.attempted;
  report.failed += phase.rejected + phase.incomplete + phase.mismatched;
  if (phase.mismatched > 0) report.correct = false;
}

double share(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Report serve_degraded(const Args& args) {
  Report report;
  report.traced = args.trace;
  std::unique_ptr<Server> server = timed_setup(
      [&] { return std::make_unique<Server>(args.seed, args.scratch / "store"); },
      args, report);
  if (!server->reference_consistent()) report.correct = false;
  if (args.self_check) server->corrupt_reference();

  const Phase fixed = server->run(
      kFixedRate,
      args.seconds * (args.trace ? 1 - kTracedShare : kFixedShare), false);
  count(fixed, report);
  report.end_to_end("p50_ms", fixed.latency_ms.median(), "ms");
  report.note("p99_ms_diag", fixed.latency_ms.quantile(0.99), "ms");
  report.note("p99_ms_diag.samples",
              static_cast<double>(fixed.latency_ms.size()), "count");
  report.note("loadgen.late_ms.p99", fixed.late_ms.quantile(0.99), "ms");

  if (!args.trace) {
    const Phase saturated =
        server->run(0, args.seconds * kSaturationShare, false);
    count(saturated, report);
    const double served =
        static_cast<double>(saturated.latency_ms.size() *
                            server->code().total_blocks() * kBlockBytes);
    report.end_to_end(
        "throughput_gbps",
        served / seconds_between(saturated.start, saturated.last_done) / 1e9,
        "GB/s");
    report.note("saturation.p50_ms", saturated.latency_ms.median(), "ms");
    return report;
  }

  const Phase traced =
      server->run(kFixedRate, args.seconds * kTracedShare, true);
  count(traced, report);
  report_trace_overhead(fixed.latency_ms.median(), traced.latency_ms.median(),
                        report);
  const std::size_t served = traced.latency_ms.size();
  report.set("io.read_us.p50", traced.read_us.median(), "us");
  report.set("io.read_us.p99", traced.read_us.quantile(0.99), "us");
  report.set("io.reads_per_req",
             static_cast<double>(traced.reads) /
                 static_cast<double>(std::max<std::size_t>(1, served)),
             "count");
  report.set("io.read_fail_frac", share(traced.read_failures, traced.reads),
             "ratio");
  report.set("serve.queue_ms.p50", traced.queue_ms.median(), "ms");
  report.set("serve.queue_ms.p99", traced.queue_ms.quantile(0.99), "ms");
  report.set("serve.fetch_ms", traced.fetch_ms.median(), "ms");
  report.set("serve.solve_ms", traced.solve_ms.median(), "ms");
  report.set("serve.tail_ms", traced.tail_ms.median(), "ms");
  report.set("serve.overlap_frac", share(traced.overlapped, served), "ratio");
  report.set("serve.fallback_frac", share(traced.fallbacks, served), "ratio");
  report.set("serve.hedges_per_req",
             static_cast<double>(traced.hedges) /
                 static_cast<double>(std::max<std::size_t>(1, served)),
             "count");
  report.set("serve.hedge_win_ratio", share(traced.hedges_won, traced.hedges),
             "ratio");
  report.set("serve.batch_size_mean", traced.batch_size, "count");
  report.set("loadgen.late_ms.p99", traced.late_ms.quantile(0.99), "ms");

  // The working set: the pristine stripe and the few request buffers the
  // LIFO slot pool keeps hot.
  probe_kernels(server->code().field().w(), kBlockBytes,
                4 * kBlockBytes * server->code().total_blocks(), args.seed,
                report);
  DecodeLayer layer;
  ppm::ThreadPool pool(ppm::hardware_threads());
  for (std::size_t i = 0; i < traced.scenarios.size() && i < kDecodeProbes;
       ++i) {
    ++report.attempted;
    if (!server->probe_decode(server->scenario(traced.scenarios[i]), layer,
                              pool)) {
      ++report.failed;
      report.correct = false;
    }
  }
  layer.report(report.get("gf.memcpy_gbps"), report);
  std::vector<FailureScenario> sequence;
  for (const std::size_t k : fixed.scenarios) {
    sequence.push_back(server->scenario(k));
  }
  probe_plan_fetch(server->code(), sequence, args.scratch / "plans", report);
  return report;
}

}  // namespace e2e
