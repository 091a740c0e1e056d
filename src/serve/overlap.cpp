#include "serve/overlap.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "common/timer.h"

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

/// Per-block fetch progress across one decode's rounds.
struct BlockFetch {
  bool arrived = false;  ///< landed in the caller's buffer
  bool failed = false;   ///< given up on
  std::size_t outstanding = 0;  ///< attempts in flight
  std::size_t attempts = 0;     ///< issued: primary, resubmissions, hedges
  std::size_t hedges = 0;       ///< duplicate reads issued
  std::int64_t last_submit_ns = 0;
};

/// One in-flight attempt, keyed by its completion token.
struct Attempt {
  std::size_t block = 0;
  std::size_t scratch = 0;  ///< index into the scratch-buffer pool
  std::int64_t submit_ns = 0;
  bool hedge = false;
};

/// The hedged stage: a round's reads all in flight at once on one
/// session, each into its own scratch buffer. The first clean completion
/// of a block is copied into the caller's buffer; a failed or corrupt one
/// is resubmitted at once, without backoff; an outstanding read older than
/// the hedge threshold gets a duplicate. Every attempt a block gets counts
/// against its 1 + max_read_retries budget, so a block is given up on
/// exactly when decode_resilient would give up on it. The event loop runs
/// only inside fetch().
class HedgedStage final : public FetchStage {
 public:
  HedgedStage(OverlapTail& tail, std::uint8_t* const* blocks,
              std::size_t block_bytes, const OverlapOptions& options,
              std::span<const std::uint32_t> expected_crc, OverlapResult& out)
      : FetchStage(blocks, block_bytes, options.resilience, expected_crc,
                   tail.clock),
        async_(tail.session.get()),
        scratch_(&tail.scratch),
        hedge_(options.hedge.enabled),
        budget_(1 + options.resilience.max_read_retries),
        out_(&out),
        fetch_(async_->block_count()) {}

  void prefetch(std::span<const std::size_t> inputs) override {
    for (const std::size_t b : inputs) {
      if (b < fetch_.size()) start(b);
    }
  }

  bool fetch(std::size_t block, const Landed& landed) override {
    if (block >= fetch_.size()) return false;
    BlockFetch& f = fetch_[block];
    start(block);
    while (!f.arrived && !f.failed) {
      if (deadline_passed()) {
        deadline_exceeded = true;
        f.failed = true;  // a late completion is discarded
        break;
      }
      turn(landed);
    }
    return f.arrived;
  }

  bool parallel_solves() const override { return true; }

  void solved(std::span<const GroupTiming> groups,
              std::int64_t rest_start_ns) override {
    out_->groups.assign(groups.begin(), groups.end());
    out_->rest_solve_start_ns = rest_start_ns;
  }

 private:
  /// Read `block` unless it has landed, been given up on, or is in flight.
  void start(std::size_t block) {
    const BlockFetch& f = fetch_[block];
    if (!f.arrived && !f.failed && f.outstanding == 0) issue(block, false);
  }

  void issue(std::size_t block, bool hedge) {
    std::size_t idx;
    if (free_scratch_.empty()) {
      idx = scratch_->size();
      scratch_->emplace_back(block_bytes);
    } else {
      idx = free_scratch_.back();
      free_scratch_.pop_back();
    }
    const std::int64_t now = clock.nanos();
    const std::uint64_t token =
        async_->submit(block, (*scratch_)[idx].data(), block_bytes);
    attempts_.emplace(token, Attempt{block, idx, now, hedge});
    BlockFetch& f = fetch_[block];
    ++f.outstanding;
    ++f.attempts;
    f.last_submit_ns = now;
    ++out_->reads_issued;
    if (hedge) {
      ++f.hedges;
      ++out_->hedges_launched;
      serve_metrics().hedges_launched.add();
    }
  }

  /// One event-loop turn: drain completions, land each block's first clean
  /// arrival, resubmit failures, hedge stragglers.
  void turn(const Landed& landed) {
    ServeMetrics& metrics = serve_metrics();
    completions_.clear();
    async_->poll(completions_, kPollInterval);
    for (const ReadCompletion& c : completions_) {
      const auto it = attempts_.find(c.token);
      if (it == attempts_.end()) continue;  // not ours (cannot happen)
      const Attempt attempt = it->second;
      attempts_.erase(it);
      BlockFetch& f = fetch_[attempt.block];
      --f.outstanding;
      const std::int64_t now = clock.nanos();
      observed_.record_nanos(
          static_cast<std::uint64_t>(now - attempt.submit_ns));
      free_scratch_.push_back(attempt.scratch);
      if (f.arrived) {
        // A duplicate of a block that already landed — hedging's waste.
        ++out_->hedges_wasted;
        metrics.hedges_wasted.add();
        continue;
      }
      if (f.failed) continue;  // given up on at the deadline
      const std::uint8_t* bytes = (*scratch_)[attempt.scratch].data();
      if (c.status == io::ReadStatus::kOk && verified(attempt.block, bytes)) {
        std::memcpy(blocks[attempt.block], bytes, block_bytes);
        f.arrived = true;
        out_->last_read_complete_ns = now;
        if (attempt.hedge) {
          ++out_->hedges_won;
          metrics.hedges_won.add();
        }
        landed(attempt.block);
      } else {
        ++out_->read_failures;
        if (f.attempts < budget_) {
          ++retries;
          issue(attempt.block, false);  // immediate resubmit — no sleeps
        } else if (f.outstanding == 0) {
          f.failed = true;  // budget gone and nothing left in flight
        }
      }
    }
    if (!hedge_) return;
    const std::int64_t threshold = hedge_threshold_ns();
    if (threshold == kNever) return;
    const std::int64_t now = clock.nanos();
    for (std::size_t b = 0; b < fetch_.size(); ++b) {
      const BlockFetch& f = fetch_[b];
      if (f.arrived || f.failed || f.outstanding == 0) continue;
      if (f.hedges >= kMaxHedgesPerRead || f.attempts >= budget_) continue;
      if (now - f.last_submit_ns > threshold) issue(b, true);
    }
  }

  /// Hedge threshold from the latencies this decode has observed (the
  /// process-global histogram would leak cross-request state into the
  /// policy, so the estimator is local).
  std::int64_t hedge_threshold_ns() const {
    std::int64_t by_quantile = kNever;
    if (observed_.count() >= kMinSamples) {
      by_quantile = static_cast<std::int64_t>(
          observed_.quantile_seconds(kHedgeQuantile) * 1e9);
    }
    std::int64_t by_deadline = kNever;
    if (options.deadline.count() > 0) {
      by_deadline = static_cast<std::int64_t>(
          kDeadlineFraction * static_cast<double>(options.deadline.count()));
    }
    const std::int64_t threshold = std::min(by_quantile, by_deadline);
    if (threshold == kNever) return kNever;
    return std::max(threshold, kMinHedgeDelayNs);
  }

  ThreadedAsyncSource* async_;
  std::vector<std::vector<std::uint8_t>>* scratch_;
  bool hedge_;
  std::size_t budget_;  ///< attempts per block
  OverlapResult* out_;
  std::vector<BlockFetch> fetch_;
  std::unordered_map<std::uint64_t, Attempt> attempts_;
  std::vector<std::size_t> free_scratch_;
  std::vector<ReadCompletion> completions_;
  LatencyHistogram observed_;
};

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
  std::vector<ReadCompletion> sink;  // wait out the tail
  while (tail.session->in_flight() > 0) {
    sink.clear();
    tail.session->poll(sink, std::chrono::milliseconds{5});
  }
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
  OverlapResult out;
  HedgedStage stage(tail, blocks, block_bytes, options, expected_crc, out);
  out.resilient = codec.decode_ladder(scenario, stage);
  out.complete = out.resilient.complete;
  out.fallback = out.resilient.escalations > 0 || out.resilient.degraded;

  ServeMetrics& metrics = serve_metrics();
  if (out.fallback) metrics.fallbacks.add();
  if (!out.fallback && out.complete) {
    std::int64_t solve_end = -1;
    for (const GroupTiming& g : out.groups) {
      if (g.solve_start_ns < 0) continue;
      if (out.first_solve_start_ns < 0 ||
          g.solve_start_ns < out.first_solve_start_ns) {
        out.first_solve_start_ns = g.solve_start_ns;
      }
      solve_end = std::max(solve_end, g.solve_end_ns);
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
      metrics.solve_seconds.record_nanos(
          static_cast<std::uint64_t>(solve_end - out.first_solve_start_ns));
    }
    metrics.overlapped_decodes.add();
  }
  out.total_ns = tail.clock.nanos();  // so far; the caller stamps the drain
  return out;  // late hedge losers may still be in flight
}

}  // namespace ppm::serve
