#include "serve/overlap.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "analyze_hazard/hazard.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "parallel/thread_pool.h"

namespace ppm::serve {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// The hedge threshold: max(kMinHedgeDelayNs, min(the kHedgeQuantile of
// the read latencies observed so far, once kMinSamples reads completed,
// kDeadlineFraction × deadline)).
constexpr double kHedgeQuantile = 0.95;
constexpr std::size_t kMinSamples = 4;
constexpr double kDeadlineFraction = 0.25;
constexpr std::int64_t kMinHedgeDelayNs = 50'000;
/// Duplicate-read cap per block per decode.
constexpr std::size_t kMaxHedgesPerRead = 2;
/// Event-loop poll granularity (also bounds hedge-check latency).
constexpr std::chrono::microseconds kPollInterval{200};

/// Per-block fetch progress inside one decode's event loop.
struct BlockFetch {
  bool needed = false;
  bool arrived = false;
  std::size_t outstanding = 0;   ///< attempts in flight
  std::size_t failures = 0;      ///< failed/corrupt completions consumed
  std::size_t hedges = 0;        ///< duplicate reads issued
  std::int64_t last_submit_ns = 0;
};

/// One in-flight attempt, keyed by its completion token.
struct Attempt {
  std::size_t block = 0;
  std::size_t scratch = 0;  ///< index into the scratch-buffer pool
  std::int64_t submit_ns = 0;
  bool hedge = false;
};

/// Wait until every attempt submitted on `async` has completed,
/// discarding the completions.
void drain(ThreadedAsyncSource& async) {
  std::vector<ReadCompletion> sink;
  while (async.in_flight() > 0) {
    sink.clear();
    async.poll(sink, std::chrono::milliseconds{5});
  }
}

/// The fast path, or the fallback ladder, on `async`. Returns once the
/// result is known, leaving total_ns to the caller: attempts the decode
/// no longer needs may still be in flight on `async`, writing into
/// `scratch`, which must outlive them. Every group solve has finished.
OverlapResult run_decode(Codec& codec, const FailureScenario& scenario,
                         io::BlockSource& source, std::uint8_t* const* blocks,
                         std::size_t block_bytes, const OverlapOptions& options,
                         std::span<const std::uint32_t> expected_crc,
                         ThreadedAsyncSource& async,
                         std::vector<std::vector<std::uint8_t>>& scratch,
                         const Timer& clock) {
  OverlapResult out;
  if (block_bytes % codec.code().field().symbol_bytes() != 0) {
    // Refused before any read, as Codec::decode_resilient refuses it.
    out.resilient.final_scenario = scenario;
    out.resilient.unrecoverable.assign(scenario.faulty().begin(),
                                       scenario.faulty().end());
    return out;
  }
  ServeMetrics& metrics = serve_metrics();

  const auto remaining_deadline = [&]() -> std::chrono::nanoseconds {
    if (options.resilience.deadline.count() <= 0) {
      return std::chrono::nanoseconds{0};  // no deadline
    }
    const std::int64_t left =
        options.resilience.deadline.count() - clock.nanos();
    // A spent budget must stay a deadline (0 would mean "none"), so the
    // fallback sees a 1 ns budget and fails fast instead of retrying.
    return std::chrono::nanoseconds{left > 0 ? left : 1};
  };

  // The ladder reads `source` itself, so the fast path's attempts must
  // have finished first; callers wait for their group solves.
  const auto fall_back = [&]() -> OverlapResult& {
    drain(async);
    out.fallback = true;
    metrics.fallbacks.add();
    ResilienceOptions ropts = options.resilience;
    ropts.deadline = remaining_deadline();
    out.resilient = codec.decode_resilient(scenario, source, blocks,
                                           block_bytes, ropts, expected_crc);
    out.complete = out.resilient.complete;
    return out;
  };

  const std::shared_ptr<const CachedPlan> plan = codec.plan_for(scenario);
  if (plan == nullptr) return fall_back();
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);

  const std::size_t block_count = source.block_count();
  const bool has_digests = !expected_crc.empty();
  std::vector<BlockFetch> fetch(block_count);
  std::unordered_map<std::uint64_t, Attempt> attempts;
  std::vector<std::size_t> free_scratch;

  const auto issue = [&](std::size_t block, bool hedge) {
    std::size_t idx;
    if (free_scratch.empty()) {
      idx = scratch.size();
      scratch.emplace_back(block_bytes);
    } else {
      idx = free_scratch.back();
      free_scratch.pop_back();
    }
    const std::int64_t now = clock.nanos();
    const std::uint64_t token =
        async.submit(block, scratch[idx].data(), block_bytes);
    attempts.emplace(token, Attempt{block, idx, now, hedge});
    BlockFetch& f = fetch[block];
    ++f.outstanding;
    f.last_submit_ns = now;
    ++out.reads_issued;
    if (hedge) {
      ++f.hedges;
      ++out.hedges_launched;
      metrics.hedges_launched.add();
    }
  };

  // Group dispatch state. Solves run on `pool` when the plan's hazard
  // proof allows concurrency, else inline in this thread; either way the
  // latch below orders every group before the rest solve and before
  // return (pool tasks capture this frame).
  const std::span<const SubPlan> groups = plan->groups();
  const std::size_t group_count = groups.size();
  out.groups.resize(group_count);
  std::vector<std::size_t> group_remaining(group_count, 0);
  std::vector<std::vector<std::size_t>> groups_of_block(block_count);
  for (std::size_t g = 0; g < group_count && g < ready.group_inputs.size();
       ++g) {
    const std::vector<std::size_t>& inputs = ready.group_inputs[g];
    group_remaining[g] = inputs.size();
    for (const std::size_t b : inputs) {
      if (b < block_count) groups_of_block[b].push_back(g);
    }
  }

  const bool parallel_solves =
      plan->profile().hazard_free && group_count > 1;

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  std::size_t groups_done = 0;
  std::size_t groups_dispatched = 0;

  const auto run_group = [&](std::size_t g) {
    const std::int64_t start = clock.nanos();
    DecodeStats stats{};
    groups[g].execute(blocks, block_bytes, &stats);
    const std::int64_t end = clock.nanos();
    {
      const std::lock_guard<std::mutex> lock(latch_mutex);
      out.groups[g].solve_start_ns = start;
      out.groups[g].solve_end_ns = end;
      out.stats.mult_xors += stats.mult_xors;
      out.stats.bytes_touched += stats.bytes_touched;
      out.stats.blocks_read += stats.blocks_read;
      ++groups_done;
      // Notify under the lock: the moment wait_groups() can observe the
      // final count it may return and this frame (latch_cv included) may
      // be torn down, so the signal must be fully delivered before the
      // mutex is released.
      latch_cv.notify_one();
    }
  };

  const auto dispatch_group = [&](std::size_t g) {
    out.groups[g].inputs_ready_ns = clock.nanos();
    ++groups_dispatched;
    if (parallel_solves &&
        ThreadPool::shared().try_submit([&run_group, g] { run_group(g); })) {
      return;
    }
    run_group(g);
  };

  const auto wait_groups = [&]() {
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock,
                  [&] { return groups_done == groups_dispatched; });
  };

  // Submit every survivor read up front; groups with no pending inputs
  // (possible only in degenerate plans) dispatch immediately.
  std::size_t needed = 0;
  for (const std::size_t b : ready.all_inputs) {
    if (b >= block_count) {  // malformed plan — let the ladder classify it
      wait_groups();
      return fall_back();
    }
    fetch[b].needed = true;
    ++needed;
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    if (group_remaining[g] == 0) dispatch_group(g);
  }
  for (const std::size_t b : ready.all_inputs) issue(b, false);

  // Hedge threshold from the latencies this decode has observed (the
  // process-global histogram would leak cross-request state into the
  // policy, so the estimator is local).
  LatencyHistogram observed;
  const auto hedge_threshold_ns = [&]() -> std::int64_t {
    std::int64_t by_quantile = kNever;
    if (observed.count() >= kMinSamples) {
      by_quantile = static_cast<std::int64_t>(
          observed.quantile_seconds(kHedgeQuantile) * 1e9);
    }
    std::int64_t by_deadline = kNever;
    if (options.resilience.deadline.count() > 0) {
      by_deadline = static_cast<std::int64_t>(
          kDeadlineFraction *
          static_cast<double>(options.resilience.deadline.count()));
    }
    const std::int64_t threshold = std::min(by_quantile, by_deadline);
    if (threshold == kNever) return kNever;
    return std::max(threshold, kMinHedgeDelayNs);
  };

  const auto deadline_passed = [&]() {
    return options.resilience.deadline.count() > 0 &&
           clock.nanos() >= options.resilience.deadline.count();
  };

  // Event loop: drain completions, copy each block's first clean arrival
  // into the caller's buffer, dispatch group solves as readiness sets
  // fill, resubmit failures, hedge stragglers.
  std::size_t arrived = 0;
  bool fetch_failed = false;
  std::vector<ReadCompletion> completions;
  while (arrived < needed && !fetch_failed && !deadline_passed()) {
    completions.clear();
    async.poll(completions, kPollInterval);
    for (const ReadCompletion& c : completions) {
      const auto it = attempts.find(c.token);
      if (it == attempts.end()) continue;  // not ours (cannot happen)
      const Attempt attempt = it->second;
      attempts.erase(it);
      BlockFetch& f = fetch[attempt.block];
      --f.outstanding;
      const std::int64_t now = clock.nanos();
      observed.record_nanos(
          static_cast<std::uint64_t>(now - attempt.submit_ns));
      if (f.arrived) {
        // A duplicate of a block that already landed — hedging's waste.
        ++out.hedges_wasted;
        metrics.hedges_wasted.add();
        free_scratch.push_back(attempt.scratch);
        continue;
      }
      bool ok = c.status == io::ReadStatus::kOk;
      if (ok && has_digests && attempt.block < expected_crc.size() &&
          crc32(scratch[attempt.scratch].data(), block_bytes) !=
              expected_crc[attempt.block]) {
        ok = false;  // a read that lied counts as a failed read
      }
      if (ok) {
        std::memcpy(blocks[attempt.block], scratch[attempt.scratch].data(),
                    block_bytes);
        f.arrived = true;
        ++arrived;
        out.last_read_complete_ns = now;
        if (attempt.hedge) {
          ++out.hedges_won;
          metrics.hedges_won.add();
        }
        for (const std::size_t g : groups_of_block[attempt.block]) {
          if (--group_remaining[g] == 0) dispatch_group(g);
        }
      } else {
        ++out.read_failures;
        ++f.failures;
        if (f.failures <= options.resilience.max_read_retries) {
          issue(attempt.block, false);  // immediate resubmit — no sleeps
        } else if (f.outstanding == 0) {
          fetch_failed = true;  // budget gone and nothing left in flight
        }
      }
      free_scratch.push_back(attempt.scratch);
    }
    if (options.hedge.enabled && arrived < needed && !fetch_failed) {
      const std::int64_t threshold = hedge_threshold_ns();
      if (threshold != kNever) {
        const std::int64_t now = clock.nanos();
        for (const std::size_t b : ready.all_inputs) {
          BlockFetch& f = fetch[b];
          if (f.arrived || f.outstanding == 0) continue;
          if (f.hedges >= kMaxHedgesPerRead) continue;
          if (now - f.last_submit_ns > threshold) issue(b, true);
        }
      }
    }
  }

  if (arrived < needed) {  // fetch failure or deadline — degrade
    wait_groups();
    return fall_back();
  }

  wait_groups();
  if (plan->rest().has_value()) {
    out.rest_solve_start_ns = clock.nanos();
    plan->rest()->execute(blocks, block_bytes, &out.stats);
  }

  // VERIFY rung: recovered blocks must match their digests; a mismatch
  // is handed to the ladder, which re-reads and classifies corruption.
  if (has_digests) {
    for (const std::size_t b : scenario.faulty()) {
      if (b < expected_crc.size() &&
          crc32(blocks[b], block_bytes) != expected_crc[b]) {
        return fall_back();
      }
    }
  }

  for (const GroupTiming& g : out.groups) {
    if (g.solve_start_ns < 0) continue;
    if (out.first_solve_start_ns < 0 ||
        g.solve_start_ns < out.first_solve_start_ns) {
      out.first_solve_start_ns = g.solve_start_ns;
    }
    if (g.solve_start_ns < out.last_read_complete_ns) {
      out.overlapped = true;
      metrics.group_solves_early.add();
    }
  }
  if (out.last_read_complete_ns >= 0) {
    metrics.fetch_seconds.record_nanos(
        static_cast<std::uint64_t>(out.last_read_complete_ns));
  }
  if (out.first_solve_start_ns >= 0) {
    std::int64_t solve_end = out.first_solve_start_ns;
    for (const GroupTiming& g : out.groups) {
      solve_end = std::max(solve_end, g.solve_end_ns);
    }
    metrics.solve_seconds.record_nanos(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, solve_end - out.first_solve_start_ns)));
  }
  out.complete = true;
  metrics.overlapped_decodes.add();
  return out;  // late hedge losers may still be in flight
}

}  // namespace

OverlapResult decode_overlapped(Codec& codec, const FailureScenario& scenario,
                                io::BlockSource& source,
                                std::uint8_t* const* blocks,
                                std::size_t block_bytes,
                                const OverlapOptions& options,
                                std::span<const std::uint32_t> expected_crc) {
  Reactor reactor(options.reactor_threads);
  OverlapTail tail;
  OverlapResult out =
      decode_overlapped(codec, scenario, source, blocks, block_bytes, options,
                        expected_crc, reactor, tail);
  drain(*tail.session);
  out.total_ns = tail.clock.nanos();
  return out;
}

OverlapResult decode_overlapped(Codec& codec, const FailureScenario& scenario,
                                io::BlockSource& source,
                                std::uint8_t* const* blocks,
                                std::size_t block_bytes,
                                const OverlapOptions& options,
                                std::span<const std::uint32_t> expected_crc,
                                Reactor& reactor, OverlapTail& tail) {
  tail.clock.reset();
  tail.session = std::make_unique<ThreadedAsyncSource>(reactor, source);
  OverlapResult out =
      run_decode(codec, scenario, source, blocks, block_bytes, options,
                 expected_crc, *tail.session, tail.scratch, tail.clock);
  out.total_ns = tail.clock.nanos();  // so far; the caller stamps the drain
  return out;
}

}  // namespace ppm::serve
