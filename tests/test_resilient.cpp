// Resilient decode pipeline: retry/backoff math, deadline behavior,
// escalation, partial recovery and CRC verification.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "codec/codec.h"
#include "codes/lrc_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "common/crc32.h"
#include "common/timer.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "test_util.h"

namespace ppm {
namespace {

using io::FaultInjectingSource;
using io::FaultSpec;
using io::MemoryBlockSource;

std::vector<const std::uint8_t*> snapshot_ptrs(
    const std::vector<std::uint8_t>& snap, std::size_t blocks,
    std::size_t bytes) {
  std::vector<const std::uint8_t*> ptrs(blocks);
  for (std::size_t i = 0; i < blocks; ++i) ptrs[i] = snap.data() + i * bytes;
  return ptrs;
}

std::vector<std::uint32_t> digests_of(const std::vector<std::uint8_t>& snap,
                                      std::size_t blocks, std::size_t bytes) {
  std::vector<std::uint32_t> crc(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    crc[i] = crc32(snap.data() + i * bytes, bytes);
  }
  return crc;
}

// ---- backoff math (pure; satellite: exponential backoff) ---------------

TEST(Backoff, GrowsExponentially) {
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{1000};
  options.backoff_multiplier = 2.0;
  options.max_backoff = std::chrono::nanoseconds{1000000};
  EXPECT_EQ(backoff_delay(options, 0).count(), 1000);
  EXPECT_EQ(backoff_delay(options, 1).count(), 2000);
  EXPECT_EQ(backoff_delay(options, 2).count(), 4000);
  EXPECT_EQ(backoff_delay(options, 3).count(), 8000);
}

TEST(Backoff, SaturatesAtMax) {
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{1000};
  options.backoff_multiplier = 2.0;
  options.max_backoff = std::chrono::nanoseconds{5000};
  EXPECT_EQ(backoff_delay(options, 2).count(), 4000);
  EXPECT_EQ(backoff_delay(options, 3).count(), 5000);
  EXPECT_EQ(backoff_delay(options, 60).count(), 5000);  // no overflow
}

TEST(Backoff, HonorsMultiplier) {
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{100};
  options.backoff_multiplier = 3.0;
  options.max_backoff = std::chrono::nanoseconds{100000};
  EXPECT_EQ(backoff_delay(options, 1).count(), 300);
  EXPECT_EQ(backoff_delay(options, 2).count(), 900);
}

TEST(Backoff, ClampsToRemainingDeadline) {
  // Satellite: the deadline-aware overload never schedules a sleep past
  // the remaining budget, and a spent budget sleeps zero.
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{1000};
  options.backoff_multiplier = 2.0;
  options.max_backoff = std::chrono::nanoseconds{1000000};
  // Plenty of budget: identical to the pure schedule.
  EXPECT_EQ(
      backoff_delay(options, 3, std::chrono::nanoseconds{1000000}).count(),
      8000);
  // Budget smaller than the schedule: clamped exactly to it.
  EXPECT_EQ(backoff_delay(options, 3, std::chrono::nanoseconds{500}).count(),
            500);
  // Spent or overdrawn budget: no sleep at all.
  EXPECT_EQ(backoff_delay(options, 0, std::chrono::nanoseconds{0}).count(),
            0);
  EXPECT_EQ(backoff_delay(options, 0, std::chrono::nanoseconds{-50}).count(),
            0);
}

TEST(Backoff, JitterDrawsStayInsideTheConfiguredBand) {
  // Satellite: each jittered backoff is uniform in
  // [(1 - jitter) * base, base] — never above the exponential schedule
  // (the deadline math still holds) and never below the band's floor
  // (the retry still backs off).
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{10000};
  options.backoff_multiplier = 2.0;
  options.max_backoff = std::chrono::nanoseconds{10000000};
  options.backoff_jitter = 0.5;
  Rng rng(42);
  for (std::size_t retry = 0; retry < 6; ++retry) {
    const auto base = backoff_delay(options, retry);
    for (int draw = 0; draw < 64; ++draw) {
      const auto jittered = backoff_delay(options, retry, rng);
      EXPECT_LE(jittered.count(), base.count());
      EXPECT_GE(jittered.count(),
                static_cast<std::int64_t>(0.5 * base.count()));
    }
  }
}

TEST(Backoff, JitterActuallySpreadsTheSchedule) {
  // The point of jitter is decorrelation: concurrent decodes with
  // distinct streams must not sleep in lockstep.
  ResilienceOptions options;
  options.initial_backoff = std::chrono::microseconds{100};
  options.backoff_jitter = 0.5;
  Rng a(1);
  Rng b(2);
  std::size_t distinct = 0;
  for (std::size_t retry = 0; retry < 8; ++retry) {
    if (backoff_delay(options, retry, a) != backoff_delay(options, retry, b)) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u);
}

TEST(Backoff, JitterIsReplayableFromAPinnedSeed) {
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{5000};
  options.backoff_jitter = 0.3;
  Rng a(7);
  Rng b(7);
  for (std::size_t retry = 0; retry < 8; ++retry) {
    EXPECT_EQ(backoff_delay(options, retry, a).count(),
              backoff_delay(options, retry, b).count());
  }
}

TEST(Backoff, ZeroJitterConsumesNoDrawAndMatchesTheBaseForm) {
  // jitter == 0 must be bit-identical to the deterministic schedule and
  // must not advance the rng — existing pinned campaigns cannot drift.
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{1000};
  Rng rng(9);
  Rng untouched(9);
  for (std::size_t retry = 0; retry < 5; ++retry) {
    EXPECT_EQ(backoff_delay(options, retry, rng).count(),
              backoff_delay(options, retry).count());
  }
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Backoff, JitterAboveOneIsClampedToTheFullBand) {
  ResilienceOptions options;
  options.initial_backoff = std::chrono::nanoseconds{8000};
  options.backoff_jitter = 7.5;  // treated as 1.0: band is [0, base]
  Rng rng(3);
  for (std::size_t retry = 0; retry < 6; ++retry) {
    const auto jittered = backoff_delay(options, retry, rng);
    EXPECT_GE(jittered.count(), 0);
    EXPECT_LE(jittered.count(), backoff_delay(options, retry).count());
  }
}

TEST(Backoff, JitteredRetryLoopKeepsTheDeadlineClamp) {
  // Jitter composes with the deadline: jitter first, clamp second — a
  // jittered ladder still cannot oversleep a short deadline.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 78);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    if (b != 1) source.set_fault(b, dead);
  }
  ResilienceOptions options;
  options.max_read_retries = 4;
  options.initial_backoff = std::chrono::seconds{10};
  options.backoff_jitter = 0.5;
  options.jitter_seed = 1234;
  options.deadline = std::chrono::milliseconds{20};
  const Timer timer;
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512, options);
  EXPECT_FALSE(out.complete);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST(Backoff, RetryLoopNeverOversleepsTheDeadline) {
  // Regression: a huge initial backoff plus a short deadline must not
  // stall the decode for the full backoff — the clamped sleep keeps the
  // whole resilient call in the deadline's neighborhood.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 77);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    if (b != 1) source.set_fault(b, dead);  // every survivor unreadable
  }
  ResilienceOptions options;
  options.max_read_retries = 4;
  options.initial_backoff = std::chrono::seconds{10};  // would stall 10s+
  options.deadline = std::chrono::milliseconds{20};
  const Timer timer;
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512, options);
  EXPECT_FALSE(out.complete);
  // The ladder may report the failure as retry exhaustion or as a
  // deadline hit depending on which trips first; the regression being
  // pinned is purely the wall clock: 20ms budget, generous scheduling
  // slack — nowhere near the 10s configured sleep.
  EXPECT_LT(timer.seconds(), 2.0);
}

// ---- pipeline behavior -------------------------------------------------

TEST(Resilient, EmptyScenarioCompletesWithoutReads) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 1);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto out = codec.decode_resilient(FailureScenario{}, source,
                                          stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(out.recovered.empty());
}

TEST(Resilient, CleanSourceDecodesCompletely) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 2);
  const FailureScenario sc({0, 7});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.partial);
  EXPECT_EQ(out.escalations, 0u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.recovered, (std::vector<std::size_t>{0, 7}));
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(out.outcome_of(0), RecoveryOutcome::kRecovered);
  EXPECT_EQ(out.outcome_of(3), RecoveryOutcome::kIntact);
}

TEST(Resilient, FailThenRecoverSucceedsWithoutEscalation) {
  // Satellite: a transient fault within the retry budget never escalates.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 3);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec transient;
  transient.fail_reads = 2;
  source.set_fault(4, transient);
  ResilienceOptions options;
  options.max_read_retries = 3;
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.escalations, 0u);
  EXPECT_GE(out.retries, 2u);
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GE(codec.metrics().resilience_retries.value(), 2u);
}

TEST(Resilient, EscalatesUnreadableSurvivorAndStillRecovers) {
  // {0,1} faulty, survivor 2 dead: within RS(6,3)'s capability after
  // escalating to {0,1,2}. The decode must end byte-identical.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 4);
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  source.set_fault(2, dead);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.escalations, 1u);
  EXPECT_TRUE(out.final_scenario.contains(2));
  EXPECT_EQ(out.recovered, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(out.outcome_of(2), RecoveryOutcome::kRecovered);
  EXPECT_EQ(codec.metrics().resilience_escalations.value(), 1u);
}

TEST(Resilient, EscalationBeyondCapabilityDegrades) {
  // RS(4,2) tolerates 2 losses; {0,1} plus a dead survivor is beyond it,
  // and RS has no independent sub-matrices to fall back on.
  const RSCode code(4, 2, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 5);
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  source.set_fault(2, dead);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512);
  EXPECT_FALSE(out.complete);
  EXPECT_FALSE(out.partial);  // nothing recovered at all
  EXPECT_TRUE(out.recovered.empty());
  EXPECT_EQ(out.source_failed, (std::vector<std::size_t>{2}));
  EXPECT_EQ(out.unrecoverable, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(out.outcome_of(2), RecoveryOutcome::kSourceFailed);
  EXPECT_GE(codec.metrics().resilience_partial_decodes.value(), 1u);
}

TEST(Resilient, PartialRecoverySolvesIndependentGroups) {
  // LRC(8,4,2): groups of 2 with locals 8..11, globals 12..13. Losing
  // group 0 entirely plus both globals is undecodable, but group 1's
  // local row still recovers block 2 on its own.
  const LRCCode code(8, 4, 2, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 6);
  const FailureScenario sc({0, 1, 2, 12, 13});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512);
  EXPECT_FALSE(out.complete);
  EXPECT_TRUE(out.partial);
  EXPECT_EQ(out.recovered, (std::vector<std::size_t>{2}));
  EXPECT_EQ(out.unrecoverable, (std::vector<std::size_t>{0, 1, 12, 13}));
  EXPECT_TRUE(stripe.blocks_equal(snap, out.recovered));
  EXPECT_EQ(out.outcome_of(2), RecoveryOutcome::kRecovered);
  EXPECT_EQ(out.outcome_of(0), RecoveryOutcome::kUnrecoverable);
  EXPECT_GE(codec.metrics().resilience_partial_decodes.value(), 1u);
}

TEST(Resilient, StragglersRespectDeadline) {
  // Satellite: every survivor read sleeps 20ms; without the 30ms deadline
  // the decode would take >= 160ms. The deadline must cut it off within
  // one in-flight read plus slack.
  const RSCode code(8, 4, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 7);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec slow;
  slow.delay = std::chrono::milliseconds{20};
  for (std::size_t b = 1; b < code.total_blocks(); ++b) {
    source.set_fault(b, slow);
  }
  ResilienceOptions options;
  options.deadline = std::chrono::milliseconds{30};
  const Timer wall;
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512, options);
  const double elapsed = wall.seconds();
  EXPECT_TRUE(out.deadline_exceeded);
  EXPECT_FALSE(out.complete);
  // 30ms budget + at most one 20ms in-flight read + generous CI slack.
  EXPECT_LT(elapsed, 0.5);
  EXPECT_GE(codec.metrics().resilience_deadline_exceeded.value(), 1u);
}

TEST(Resilient, MaxEscalationsCapDegradesInstead) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 8);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  source.set_fault(1, dead);
  ResilienceOptions options;
  options.max_escalations = 0;
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512, options);
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.escalations, 0u);
  EXPECT_EQ(out.outcome_of(1), RecoveryOutcome::kSourceFailed);
  EXPECT_EQ(out.outcome_of(0), RecoveryOutcome::kUnrecoverable);
}

TEST(Resilient, CorruptSurvivorDetectedByDigestsAndEscalated) {
  // A silently corrupt survivor fails its CRC on every read, escalates
  // into the faulty set, and the decode still ends byte-identical.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 9);
  const auto crc = digests_of(snap, code.total_blocks(), 512);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec rot;
  rot.corrupt = true;
  rot.corrupt_offset = 17;
  rot.corrupt_bytes = 3;
  source.set_fault(2, rot);
  const auto out = codec.decode_resilient(sc, source, stripe.block_ptrs(),
                                          512, {}, crc);
  EXPECT_TRUE(out.complete);
  EXPECT_GE(out.corruption_detected, 1u);
  EXPECT_EQ(out.escalations, 1u);
  EXPECT_TRUE(out.final_scenario.contains(2));
  EXPECT_EQ(out.recovered, (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GE(codec.metrics().resilience_corruption_detected.value(), 1u);
}

TEST(Resilient, CorruptSurvivorUndetectedWithoutDigests) {
  // Rung 4's value, stated as a test: without digests the same fault
  // yields a "complete" decode with wrong bytes.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 9);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec rot;
  rot.corrupt = true;
  rot.corrupt_offset = 17;
  rot.corrupt_bytes = 3;
  source.set_fault(2, rot);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.corruption_detected, 0u);
  EXPECT_FALSE(stripe.blocks_equal(snap, out.recovered));
}

TEST(Resilient, MetricsJsonCarriesResilienceGroup) {
  const RSCode code(6, 3, 8);
  const Codec codec(code);
  const std::string json = codec.metrics_json();
  EXPECT_NE(json.find("\"resilience\":{"), std::string::npos);
  EXPECT_NE(json.find("\"escalations\":"), std::string::npos);
  EXPECT_NE(json.find("\"partial_decodes\":"), std::string::npos);
  EXPECT_NE(json.find("\"store_failures\":"), std::string::npos);
}

TEST(Resilient, RefusesBlocksThatSplitASymbol) {
  // SD(6,4,2,2) over GF(2^16), two lost data blocks, 4097-byte blocks:
  // each block ends in half a symbol, so nothing may be read or written.
  const SDCode code(6, 4, 2, 2, 16);
  Codec codec(code);
  Stripe stripe(code, 4098);
  const auto snap = test::fill_and_encode(code, stripe, 3);
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const auto erased = stripe.snapshot();
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 4098);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 4097);
  const auto out =
      codec.decode_resilient(sc, source, stripe.block_ptrs(), 4097);
  EXPECT_FALSE(out.complete);
  EXPECT_TRUE(out.recovered.empty());
  EXPECT_EQ(out.unrecoverable, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(stripe.equals(erased));
}

}  // namespace
}  // namespace ppm
