// Resilient decode pipeline (Codec::decode_resilient): the serving path
// rebuilt over a fallible BlockSource. See codec/resilient.h for the
// ladder contract and docs/ROBUSTNESS.md for the fault model.
#include "codec/resilient.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "codec/codec.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/timer.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "io/block_source.h"

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

namespace {

enum class FetchState : std::uint8_t { kUnread, kInBuffer, kFailed };

/// Jitter-stream seed for decodes that did not pin one: a process-global
/// counter, so concurrent decodes retrying against the same dead device
/// draw from distinct streams and spread out instead of thundering in
/// lockstep.
std::uint64_t next_jitter_seed() {
  static std::atomic<std::uint64_t> counter{0x9e3779b97f4a7c15ULL};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Survivor fetch engine: reads blocks from the source into the caller's
/// stripe buffers exactly once per decode, with bounded retries,
/// exponential backoff and the per-decode deadline. CRC verification of
/// fetched survivors (when digests are supplied) happens here too, so a
/// silently corrupt read is indistinguishable from a failed one — it
/// retries and, if persistent, escalates.
class Fetcher {
 public:
  Fetcher(io::BlockSource& source, std::uint8_t* const* blocks,
          std::size_t block_bytes, const ResilienceOptions& options,
          std::span<const std::uint32_t> expected_crc, const Timer& clock,
          CodecMetrics& metrics, ResilientResult& out)
      : source_(&source),
        blocks_(blocks),
        block_bytes_(block_bytes),
        options_(&options),
        expected_crc_(expected_crc),
        clock_(&clock),
        metrics_(&metrics),
        out_(&out),
        state_(source.block_count(), FetchState::kUnread),
        jitter_rng_(options.jitter_seed != 0 ? options.jitter_seed
                                             : next_jitter_seed()) {}

  /// True once the per-decode deadline (if any) has elapsed. From then on
  /// no source reads or backoff sleeps are issued.
  bool deadline_passed() const {
    return options_->deadline.count() > 0 &&
           clock_->nanos() >= options_->deadline.count();
  }

  /// `block` was given up on (retries exhausted or deadline passed).
  bool failed(std::size_t block) const {
    return block < state_.size() && state_[block] == FetchState::kFailed;
  }

  /// Fetch `block` into the caller's buffer. Idempotent per decode: a
  /// block already fetched returns true without touching the source, a
  /// block already given up on returns false without new attempts.
  bool fetch(std::size_t block) {
    if (block >= state_.size()) return false;
    if (state_[block] == FetchState::kInBuffer) return true;
    if (state_[block] == FetchState::kFailed) return false;
    for (std::size_t attempt = 0;; ++attempt) {
      if (deadline_passed()) {
        out_->deadline_exceeded = true;
        break;
      }
      bool ok = source_->read(block, blocks_[block], block_bytes_) ==
                io::ReadStatus::kOk;
      if (ok && has_digests() &&
          crc32(blocks_[block], block_bytes_) != expected_crc_[block]) {
        // A read that returns wrong bytes is a failed read that lied;
        // count the detection and retry — transient corruption heals,
        // persistent corruption escalates like any dead block.
        ++out_->corruption_detected;
        metrics_->resilience_corruption_detected.add();
        ok = false;
      }
      if (ok) {
        state_[block] = FetchState::kInBuffer;
        return true;
      }
      if (attempt >= options_->max_read_retries) break;
      ++out_->retries;
      metrics_->resilience_retries.add();
      sleep_backoff(attempt);
    }
    state_[block] = FetchState::kFailed;
    return false;
  }

 private:
  bool has_digests() const { return !expected_crc_.empty(); }

  void sleep_backoff(std::size_t retry_index) {
    // Jitter first, then clamp: the deadline budget always wins.
    auto delay = backoff_delay(*options_, retry_index, jitter_rng_);
    if (options_->deadline.count() > 0) {
      const std::chrono::nanoseconds remaining{options_->deadline.count() -
                                               clock_->nanos()};
      delay = remaining.count() <= 0 ? std::chrono::nanoseconds{0}
                                     : std::min(delay, remaining);
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }

  io::BlockSource* source_;
  std::uint8_t* const* blocks_;
  std::size_t block_bytes_;
  const ResilienceOptions* options_;
  std::span<const std::uint32_t> expected_crc_;
  const Timer* clock_;
  CodecMetrics* metrics_;
  ResilientResult* out_;
  std::vector<FetchState> state_;
  Rng jitter_rng_;  ///< per-decode jitter stream (see ResilienceOptions)
};

/// Classify every block into the result's disjoint outcome lists, set the
/// summary flags, and account the decode in the metrics. `decoded` is the
/// sorted set of blocks rewritten by the final executed sub-plans; a
/// decoded block is re-verified against its expected CRC (rung 4) before
/// it may be reported as recovered.
void finish(ResilientResult& out, const std::vector<std::size_t>& faulty,
            const std::vector<std::size_t>& decoded, const Fetcher& fetcher,
            std::span<const std::uint32_t> expected_crc,
            std::uint8_t* const* blocks, std::size_t block_bytes,
            std::size_t total_blocks, const Timer& clock,
            CodecMetrics& metrics) {
  for (std::size_t b = 0; b < total_blocks; ++b) {
    const bool is_faulty = std::binary_search(faulty.begin(), faulty.end(), b);
    // A fetch-failed survivor the ladder could not escalate (deadline or
    // escalation cap) is an outcome too: its bytes never arrived.
    if (!is_faulty && !fetcher.failed(b)) continue;
    if (std::binary_search(decoded.begin(), decoded.end(), b)) {
      if (!expected_crc.empty() &&
          crc32(blocks[b], block_bytes) != expected_crc[b]) {
        out.corrupted.push_back(b);
        ++out.corruption_detected;
        metrics.resilience_corruption_detected.add();
      } else {
        out.recovered.push_back(b);
      }
    } else if (fetcher.failed(b)) {
      out.source_failed.push_back(b);
    } else {
      out.unrecoverable.push_back(b);
    }
  }
  out.complete = out.corrupted.empty() && out.source_failed.empty() &&
                 out.unrecoverable.empty();
  out.partial = !out.complete && !out.recovered.empty();
  metrics.decodes.add();
  metrics.stripes_decoded.add();
  metrics.mult_xors.add(out.stats.mult_xors);
  metrics.bytes_touched.add(out.stats.bytes_touched);
  metrics.decode_seconds.record_seconds(clock.seconds());
  if (out.deadline_exceeded) metrics.resilience_deadline_exceeded.add();
}

}  // namespace

ResilientResult Codec::decode_resilient(
    const FailureScenario& scenario, io::BlockSource& source,
    std::uint8_t* const* blocks, std::size_t block_bytes,
    const ResilienceOptions& options,
    std::span<const std::uint32_t> expected_crc) {
  ResilientResult out;
  out.final_scenario = scenario;
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
  const Timer clock;
  // Digests are all-or-nothing: one CRC32 per block of the stripe.
  if (expected_crc.size() != code_->total_blocks()) expected_crc = {};
  Fetcher fetcher(source, blocks, block_bytes, options, expected_crc, clock,
                  metrics_, out);

  // The working faulty set: the scenario plus every escalated survivor.
  // Kept sorted so sub-plan survivor lists can be membership-tested.
  std::vector<std::size_t> faulty(scenario.faulty().begin(),
                                  scenario.faulty().end());
  const auto in_faulty = [&faulty](std::size_t b) {
    return std::binary_search(faulty.begin(), faulty.end(), b);
  };

  // ---- Rungs 1+2: retry + escalate, re-planning each round. ----------
  // Each round replans for the current faulty set (plan cache / store
  // warm hit), fetches each sub-plan's survivors and executes it. A
  // survivor whose reads fail permanently is promoted into the faulty
  // set and the round restarts; re-executing earlier sub-plans is safe
  // (they overwrite their outputs from fetched survivors). The loop
  // terminates: every escalation strictly grows `faulty`, and an
  // over-capability set makes plan_for return null.
  bool ladder_open = true;  // false: stop escalating, degrade to partial
  std::shared_ptr<const CachedPlan> plan;
  while (ladder_open) {
    const FailureScenario current{
        std::vector<std::size_t>(faulty.begin(), faulty.end())};
    out.final_scenario = current;
    plan = faulty.size() > code_->check_rows() ? nullptr : plan_for(current);
    if (plan == nullptr) break;  // undecodable: degrade to partial

    bool escalated = false;
    const auto run_sub = [&](const SubPlan& sub) -> bool {
      for (const std::size_t s : sub.survivors()) {
        // H_rest may read blocks an earlier group recovered in-buffer;
        // those are in the faulty set and must not be source-read.
        if (in_faulty(s)) continue;
        if (fetcher.fetch(s)) continue;
        if (fetcher.deadline_passed() ||
            out.escalations >= options.max_escalations) {
          ladder_open = false;  // cannot escalate: degrade to partial
          return false;
        }
        faulty.insert(std::upper_bound(faulty.begin(), faulty.end(), s), s);
        ++out.escalations;
        metrics_.resilience_escalations.add();
        escalated = true;
        return false;
      }
      sub.execute(blocks, block_bytes, &out.stats);
      return true;
    };

    bool executed = true;
    for (const SubPlan& sub : plan->groups()) {
      if (!run_sub(sub)) {
        executed = false;
        break;
      }
    }
    if (executed && plan->rest().has_value()) {
      executed = run_sub(*plan->rest());
    }
    if (!executed) {
      if (escalated) continue;  // replan with the larger faulty set
      break;                    // ladder closed: degrade to partial
    }

    // Full decode executed: every block of `faulty` was rewritten.
    finish(out, faulty, faulty, fetcher, expected_crc, blocks, block_bytes,
           code_->total_blocks(), clock, metrics_);
    return out;
  }

  // ---- Rung 3: partial recovery over the O1 group decomposition. -----
  // The escalated scenario is beyond full recovery (or the ladder was
  // closed by the deadline / escalation cap). Solve every independent
  // group whose survivors are all readable; groups with unreadable or
  // unsolvable inputs leave their blocks unrecovered. If every group
  // solved, H_rest gets the same chance with the recovered blocks
  // readable in-buffer.
  metrics_.resilience_partial_decodes.add();
  const FailureScenario current{
      std::vector<std::size_t>(faulty.begin(), faulty.end())};
  out.final_scenario = current;
  const Matrix& h = code_->parity_check();
  const LogTable table = LogTable::build(h, current.faulty());
  const Partition part = make_partition(h, table);
  std::vector<std::size_t> decoded;

  const auto try_solve = [&](std::span<const std::size_t> rows,
                             std::span<const std::size_t> unknowns,
                             std::span<const std::size_t> excluded) -> bool {
    auto sub = SubPlan::make(h, rows, unknowns, excluded,
                             Sequence::kMatrixFirst);
    if (!sub.has_value()) return false;
    for (const std::size_t s : sub->survivors()) {
      if (std::binary_search(decoded.begin(), decoded.end(), s)) {
        continue;  // recovered earlier this pass; valid in-buffer
      }
      if (!fetcher.fetch(s)) return false;
    }
    sub->execute(blocks, block_bytes, &out.stats);
    return true;
  };

  for (const IndependentGroup& g : part.groups) {
    if (try_solve(g.rows, g.faulty_cols, current.faulty())) {
      for (const std::size_t b : g.faulty_cols) {
        decoded.insert(std::upper_bound(decoded.begin(), decoded.end(), b),
                       b);
      }
    }
  }
  if (!part.rest_empty()) {
    // H_rest may legitimately read group-recovered blocks, so exclude
    // only the still-unknown blocks (mirrors Codec::build_plan, which
    // excludes rest_faulty once the groups are known to have run).
    std::vector<std::size_t> still_faulty;
    for (const std::size_t b : faulty) {
      if (!std::binary_search(decoded.begin(), decoded.end(), b)) {
        still_faulty.push_back(b);
      }
    }
    const bool groups_all_decoded =
        still_faulty.size() == part.rest_faulty.size();
    if (groups_all_decoded &&
        try_solve(part.rest_rows, part.rest_faulty, still_faulty)) {
      for (const std::size_t b : part.rest_faulty) {
        decoded.insert(std::upper_bound(decoded.begin(), decoded.end(), b),
                       b);
      }
    }
  }
  finish(out, faulty, decoded, fetcher, expected_crc, blocks, block_bytes,
         code_->total_blocks(), clock, metrics_);
  return out;
}

}  // namespace ppm
