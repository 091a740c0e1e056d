// The recovery ladder (Codec::decode_ladder) and its serial fetch stage
// (Codec::decode_resilient). See codec/resilient.h for the ladder contract
// and docs/ROBUSTNESS.md for the fault model.
#include "codec/resilient.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "analyze_hazard/hazard.h"
#include "codec/codec.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/timer.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "io/block_source.h"
#include "parallel/thread_pool.h"

namespace ppm {

std::chrono::nanoseconds backoff_delay(const ResilienceOptions& options,
                                       std::size_t retry_index) {
  double ns = static_cast<double>(options.initial_backoff.count());
  const double cap = static_cast<double>(options.max_backoff.count());
  for (std::size_t i = 0; i < retry_index && ns < cap; ++i) {
    ns *= options.backoff_multiplier;
  }
  if (ns > cap) ns = cap;
  if (ns < 0) ns = 0;
  return std::chrono::nanoseconds{static_cast<std::int64_t>(ns)};
}

std::chrono::nanoseconds backoff_delay(const ResilienceOptions& options,
                                       std::size_t retry_index, Rng& rng) {
  const std::chrono::nanoseconds base = backoff_delay(options, retry_index);
  double jitter = options.backoff_jitter;
  if (jitter <= 0.0) return base;  // no draw: bit-identical to the base form
  if (jitter > 1.0) jitter = 1.0;
  const double b = static_cast<double>(base.count());
  const double lo = b * (1.0 - jitter);
  return std::chrono::nanoseconds{
      static_cast<std::int64_t>(lo + rng.uniform() * (b - lo))};
}

RecoveryOutcome ResilientResult::outcome_of(std::size_t block) const {
  const auto in = [block](const std::vector<std::size_t>& v) {
    return std::binary_search(v.begin(), v.end(), block);
  };
  if (in(recovered)) return RecoveryOutcome::kRecovered;
  if (in(corrupted)) return RecoveryOutcome::kCorruptionDetected;
  if (in(source_failed)) return RecoveryOutcome::kSourceFailed;
  if (in(unrecoverable)) return RecoveryOutcome::kUnrecoverable;
  return RecoveryOutcome::kIntact;
}

bool FetchStage::verified(std::size_t block, const std::uint8_t* bytes) {
  if (expected_crc.empty() ||
      crc32(bytes, block_bytes) == expected_crc[block]) {
    return true;
  }
  ++corruption_detected;
  return false;
}

namespace {

/// Jitter-stream seed for decodes that did not pin one: a process-global
/// counter, so concurrent decodes retrying against the same dead device
/// draw from distinct streams and spread out instead of thundering in
/// lockstep.
std::uint64_t next_jitter_seed() {
  static std::atomic<std::uint64_t> counter{0x9e3779b97f4a7c15ULL};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// The serial stage: reads one block at a time, in the caller, straight
/// into the caller's stripe buffers, with bounded retries, exponential
/// backoff and the per-decode deadline. A read whose bytes fail their
/// digest is a failed read — it retries and, if persistent, escalates.
/// The ladder asks for each block at most once, so it keeps no state.
class Fetcher final : public FetchStage {
 public:
  Fetcher(io::BlockSource& source, std::uint8_t* const* blocks,
          std::size_t block_bytes, const ResilienceOptions& options,
          std::span<const std::uint32_t> expected_crc, const Timer& clock)
      : FetchStage(blocks, block_bytes, options, expected_crc, clock),
        source_(&source),
        jitter_rng_(options.jitter_seed != 0 ? options.jitter_seed
                                             : next_jitter_seed()) {}

  bool fetch(std::size_t block, const Landed& landed) override {
    if (block >= source_->block_count()) return false;
    for (std::size_t attempt = 0;; ++attempt) {
      if (deadline_passed()) {
        deadline_exceeded = true;
        break;
      }
      if (source_->read(block, blocks[block], block_bytes) ==
              io::ReadStatus::kOk &&
          verified(block, blocks[block])) {
        landed(block);
        return true;
      }
      if (attempt >= options.max_read_retries) break;
      ++retries;
      sleep_backoff(attempt);
    }
    return false;
  }

 private:
  void sleep_backoff(std::size_t retry_index) {
    // Jitter first, then clamp: the deadline budget always wins.
    auto delay = backoff_delay(options, retry_index, jitter_rng_);
    if (options.deadline.count() > 0) {
      const std::chrono::nanoseconds remaining{options.deadline.count() -
                                               clock.nanos()};
      delay = remaining.count() <= 0 ? std::chrono::nanoseconds{0}
                                     : std::min(delay, remaining);
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }

  io::BlockSource* source_;
  Rng jitter_rng_;  ///< per-decode jitter stream (see ResilienceOptions)
};

/// One round's group solves: each O1 group runs once its plan_readiness
/// inputs are in — on ThreadPool::shared() when the stage allows it and
/// the plan's hazard proof does (hazard-free, at least 2 groups), else in
/// the fetching thread. wait() orders every solve before H_rest and before
/// the round is left; pool tasks capture this object.
class GroupSolves {
 public:
  GroupSolves(const CachedPlan& plan, const hazard::PlanReadiness& ready,
              const std::vector<bool>& in_buffer, const FetchStage& stage,
              DecodeStats& stats)
      : groups_(plan.groups()),
        stage_(&stage),
        stats_(&stats),
        pool_(stage.parallel_solves() && plan.profile().hazard_free &&
              groups_.size() > 1),
        timings_(groups_.size()),
        remaining_(groups_.size(), 0),
        waiting_(in_buffer.size()) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (const std::size_t b : ready.group_inputs[g]) {
        if (b < in_buffer.size() && in_buffer[b]) continue;
        ++remaining_[g];
        if (b < waiting_.size()) waiting_[b].push_back(g);
      }
      if (remaining_[g] == 0) dispatch(g);
    }
  }

  /// `block` landed: dispatch every group it completes.
  void landed(std::size_t block) {
    if (block >= waiting_.size()) return;
    for (const std::size_t g : waiting_[block]) {
      if (--remaining_[g] == 0) dispatch(g);
    }
  }

  /// Wait for every dispatched solve; the timings are final then.
  std::span<const GroupTiming> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_ == dispatched_; });
    return timings_;
  }

 private:
  void dispatch(std::size_t g) {
    timings_[g].inputs_ready_ns = stage_->clock.nanos();
    ++dispatched_;
    if (pool_ && ThreadPool::shared().try_submit([this, g] { run(g); })) {
      return;
    }
    run(g);
  }

  void run(std::size_t g) {
    const std::int64_t start = stage_->clock.nanos();
    DecodeStats stats{};
    groups_[g].execute(stage_->blocks, stage_->block_bytes, &stats);
    const std::int64_t end = stage_->clock.nanos();
    const std::lock_guard<std::mutex> lock(mutex_);
    timings_[g].solve_start_ns = start;
    timings_[g].solve_end_ns = end;
    stats_->mult_xors += stats.mult_xors;
    stats_->bytes_touched += stats.bytes_touched;
    stats_->blocks_read += stats.blocks_read;
    ++done_;
    // Notify under the lock: once wait() observes the final count this
    // object may be torn down, condition variable included.
    done_cv_.notify_one();
  }

  std::span<const SubPlan> groups_;
  const FetchStage* stage_;
  DecodeStats* stats_;
  bool pool_;
  std::vector<GroupTiming> timings_;
  std::vector<std::size_t> remaining_;              ///< inputs still out
  std::vector<std::vector<std::size_t>> waiting_;  ///< groups per block
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t dispatched_ = 0;
  std::size_t done_ = 0;
};

/// Classify every block into the result's disjoint outcome lists, fold in
/// the stage's tallies, set the summary flags, and account the decode in
/// the metrics — once per decode, whichever stage fetched. `decoded` is
/// the sorted set of blocks rewritten by the final executed sub-plans; a
/// decoded block is re-verified against its expected CRC (rung 4) before
/// it may be reported as recovered.
void finish(ResilientResult& out, const std::vector<std::size_t>& faulty,
            const std::vector<std::size_t>& decoded,
            const std::vector<bool>& lost, FetchStage& stage,
            CodecMetrics& metrics) {
  for (std::size_t b = 0; b < lost.size(); ++b) {
    const bool is_faulty = std::binary_search(faulty.begin(), faulty.end(), b);
    // A lost survivor the ladder could not escalate (deadline or
    // escalation cap) is an outcome too: its bytes never arrived.
    if (!is_faulty && !lost[b]) continue;
    if (std::binary_search(decoded.begin(), decoded.end(), b)) {
      (stage.verified(b, stage.blocks[b]) ? out.recovered : out.corrupted)
          .push_back(b);
    } else if (lost[b]) {
      out.source_failed.push_back(b);
    } else {
      out.unrecoverable.push_back(b);
    }
  }
  out.retries = stage.retries;
  out.corruption_detected = stage.corruption_detected;
  out.deadline_exceeded = stage.deadline_exceeded;
  out.complete = out.corrupted.empty() && out.source_failed.empty() &&
                 out.unrecoverable.empty();
  out.partial = !out.complete && !out.recovered.empty();
  metrics.decodes.add();
  metrics.stripes_decoded.add();
  metrics.mult_xors.add(out.stats.mult_xors);
  metrics.bytes_touched.add(out.stats.bytes_touched);
  metrics.decode_seconds.record_seconds(stage.clock.seconds());
  metrics.resilience_retries.add(out.retries);
  metrics.resilience_corruption_detected.add(out.corruption_detected);
  if (out.deadline_exceeded) metrics.resilience_deadline_exceeded.add();
}

}  // namespace

ResilientResult Codec::decode_resilient(
    const FailureScenario& scenario, io::BlockSource& source,
    std::uint8_t* const* blocks, std::size_t block_bytes,
    const ResilienceOptions& options,
    std::span<const std::uint32_t> expected_crc) {
  const Timer clock;
  Fetcher fetcher(source, blocks, block_bytes, options, expected_crc, clock);
  return decode_ladder(scenario, fetcher);
}

ResilientResult Codec::decode_ladder(const FailureScenario& scenario,
                                     FetchStage& stage) {
  ResilientResult out;
  out.final_scenario = scenario;
  std::uint8_t* const* const blocks = stage.blocks;
  const std::size_t block_bytes = stage.block_bytes;
  if (block_bytes % code_->field().symbol_bytes() != 0) {
    // Refused before any read: no kernel can rebuild a split symbol.
    out.unrecoverable.assign(scenario.faulty().begin(),
                             scenario.faulty().end());
    return out;
  }
  if (scenario.empty()) {
    out.complete = true;
    return out;
  }
  const std::size_t total = code_->total_blocks();
  // Digests are all-or-nothing: one CRC32 per block of the stripe.
  if (stage.expected_crc.size() != total) stage.expected_crc = {};

  // The working faulty set: the scenario plus every escalated survivor.
  // Kept sorted so sub-plan survivor lists can be membership-tested.
  std::vector<std::size_t> faulty(scenario.faulty().begin(),
                                  scenario.faulty().end());
  // The ladder's view of the survivors: landed in the caller's buffer,
  // or asked for and given up on (lost).
  std::vector<bool> in_buffer(total, false);
  std::vector<bool> lost(total, false);
  const auto have = [&](std::size_t b,
                        const FetchStage::Landed& landed) -> bool {
    if (b < total && (in_buffer[b] || lost[b])) return in_buffer[b];
    if (stage.fetch(b, landed)) return true;
    if (b < total) lost[b] = true;
    return false;
  };
  const FetchStage::Landed mark = [&in_buffer, total](std::size_t b) {
    if (b < total) in_buffer[b] = true;
  };

  // ---- Rungs 1+2: retry + escalate, re-planning each round. ----------
  // Each round replans for the current faulty set (plan cache / store
  // warm hit) and fetches the plan's survivors in plan order, solving
  // each group as its inputs land. The first survivor in plan order that
  // the stage gives up on is promoted into the faulty set and the round
  // restarts; re-executing groups is safe (they overwrite their outputs
  // from fetched survivors). The loop terminates: every escalation
  // strictly grows `faulty`, and an over-capability set makes plan_for
  // return null.
  for (;;) {
    out.final_scenario = FailureScenario(faulty);
    const std::shared_ptr<const CachedPlan> plan =
        faulty.size() > code_->check_rows() ? nullptr
                                            : plan_for(out.final_scenario);
    if (plan == nullptr) break;  // undecodable: degrade to partial

    const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);
    // Plan order (FetchStage::fetch); a block already in is skipped.
    std::vector<std::size_t> order;
    for (const auto& inputs : ready.group_inputs) {
      order.insert(order.end(), inputs.begin(), inputs.end());
    }
    order.insert(order.end(), ready.rest_inputs.begin(),
                 ready.rest_inputs.end());
    GroupSolves solves(*plan, ready, in_buffer, stage, out.stats);
    const FetchStage::Landed landed = [&](std::size_t b) {
      mark(b);
      solves.landed(b);
    };
    stage.prefetch(ready.all_inputs);
    const auto miss = std::find_if(
        order.begin(), order.end(),
        [&](std::size_t s) { return !have(s, landed); });
    const std::span<const GroupTiming> timings = solves.wait();
    if (miss == order.end()) {
      // Every group ran; H_rest reads their outputs in-buffer.
      std::int64_t rest_start_ns = -1;
      if (plan->rest().has_value()) {
        rest_start_ns = stage.clock.nanos();
        plan->rest()->execute(blocks, block_bytes, &out.stats);
      }
      stage.solved(timings, rest_start_ns);
      finish(out, faulty, faulty, lost, stage, metrics_);
      return out;
    }
    if (stage.deadline_passed() ||
        out.escalations >= stage.options.max_escalations) {
      break;  // cannot escalate: degrade to partial
    }
    faulty.insert(std::upper_bound(faulty.begin(), faulty.end(), *miss),
                  *miss);
    ++out.escalations;
    metrics_.resilience_escalations.add();
  }

  // ---- Rung 3: partial recovery over the O1 group decomposition. -----
  // The escalated scenario is beyond full recovery (or the ladder was
  // closed by the deadline / escalation cap). Solve every independent
  // group whose survivors are all readable; groups with unreadable or
  // unsolvable inputs leave their blocks unrecovered. If every group
  // solved, H_rest gets the same chance with the recovered blocks
  // readable in-buffer. out.final_scenario already holds `faulty`.
  out.degraded = true;
  metrics_.resilience_partial_decodes.add();
  const Matrix& h = code_->parity_check();
  const LogTable table = LogTable::build(h, out.final_scenario.faulty());
  const Partition part = make_partition(h, table);
  std::vector<std::size_t> decoded;  // sorted
  const auto try_solve = [&](std::span<const std::size_t> rows,
                             std::span<const std::size_t> unknowns,
                             std::span<const std::size_t> excluded) {
    auto sub = SubPlan::make(h, rows, unknowns, excluded,
                             Sequence::kMatrixFirst);
    if (!sub.has_value()) return;
    for (const std::size_t s : sub->survivors()) {
      if (std::binary_search(decoded.begin(), decoded.end(), s)) {
        continue;  // recovered earlier this pass; valid in-buffer
      }
      if (!have(s, mark)) return;
    }
    sub->execute(blocks, block_bytes, &out.stats);
    decoded.insert(decoded.end(), unknowns.begin(), unknowns.end());
    std::sort(decoded.begin(), decoded.end());
  };
  for (const IndependentGroup& g : part.groups) {
    try_solve(g.rows, g.faulty_cols, out.final_scenario.faulty());
  }
  if (!part.rest_empty() &&
      decoded.size() + part.rest_faulty.size() == faulty.size()) {
    // Every group decoded, so H_rest may read their outputs: exclude only
    // its own unknowns (as Codec::build_plan does).
    try_solve(part.rest_rows, part.rest_faulty, part.rest_faulty);
  }
  finish(out, faulty, decoded, lost, stage, metrics_);
  return out;
}

}  // namespace ppm
