// Decode-serving front end: async source, readiness sets, overlapped
// solves with hedged reads, the DecodeServer queue, and the recovery
// ladder served decodes share with decode_resilient — docs/SERVING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "analyze_hazard/hazard.h"
#include "campaign/campaign.h"
#include "codec/codec.h"
#include "codes/lrc_code.h"
#include "codes/rdp_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "common/crc32.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "serve/overlap.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload/scenario_gen.h"

namespace ppm {
namespace {

using io::FaultInjectingSource;
using io::FaultSpec;
using io::MemoryBlockSource;

using campaign::digests_of;
using campaign::snapshot_ptrs;

// ---- ThreadedAsyncSource: the thread-backed reactor ---------------------

TEST(AsyncSource, CompletionsCarryTheRightBytes) {
  const std::size_t kBlocks = 6;
  const std::size_t kBytes = 128;
  std::vector<std::uint8_t> data(kBlocks * kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto ptrs = snapshot_ptrs(data, kBlocks, kBytes);
  MemoryBlockSource inner(ptrs.data(), kBlocks, kBytes);
  serve::Reactor reactor(3);
  serve::ThreadedAsyncSource async(reactor, inner);
  EXPECT_EQ(async.block_count(), kBlocks);
  EXPECT_EQ(async.block_bytes(), kBytes);

  std::vector<std::vector<std::uint8_t>> dst(kBlocks);
  std::vector<std::uint64_t> tokens(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    dst[b].resize(kBytes);
    tokens[b] = async.submit(b, dst[b].data(), kBytes);
  }
  std::vector<serve::ReadCompletion> done;
  while (done.size() < kBlocks) {
    async.poll(done, std::chrono::milliseconds{50});
  }
  EXPECT_EQ(async.in_flight(), 0u);
  std::vector<bool> seen(kBlocks, false);
  for (const serve::ReadCompletion& c : done) {
    ASSERT_LT(c.block, kBlocks);
    EXPECT_FALSE(seen[c.block]) << "duplicate completion";
    seen[c.block] = true;
    EXPECT_EQ(c.token, tokens[c.block]);
    EXPECT_EQ(c.status, io::ReadStatus::kOk);
    EXPECT_EQ(std::memcmp(dst[c.block].data(), ptrs[c.block], kBytes), 0);
  }
}

TEST(AsyncSource, FailedReadsCompleteWithFailedStatus) {
  std::vector<std::uint8_t> data(64);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  serve::Reactor reactor(1);
  serve::ThreadedAsyncSource async(reactor, inner);
  std::vector<std::uint8_t> dst(64);
  const std::uint64_t token = async.submit(7, dst.data(), 64);  // no block 7
  std::vector<serve::ReadCompletion> done;
  while (done.empty()) async.poll(done, std::chrono::milliseconds{50});
  EXPECT_EQ(done[0].token, token);
  EXPECT_EQ(done[0].block, 7u);
  EXPECT_EQ(done[0].status, io::ReadStatus::kFailed);
}

TEST(AsyncSource, PollWithNothingInFlightReturnsImmediately) {
  std::vector<std::uint8_t> data(64);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  serve::Reactor reactor(2);
  serve::ThreadedAsyncSource async(reactor, inner);
  std::vector<serve::ReadCompletion> done;
  EXPECT_EQ(async.poll(done, std::chrono::seconds{10}), 0u);
  EXPECT_TRUE(done.empty());
}

TEST(AsyncSource, SessionsOnOneReactorSeeOnlyTheirOwnCompletions) {
  const std::size_t kBytes = 96;
  std::vector<std::uint8_t> a_data(kBytes, 0xA1);
  std::vector<std::uint8_t> b_data(kBytes, 0xB2);
  const std::uint8_t* a_ptr = a_data.data();
  const std::uint8_t* b_ptr = b_data.data();
  MemoryBlockSource a_inner(&a_ptr, 1, kBytes);
  MemoryBlockSource b_inner(&b_ptr, 1, kBytes);
  serve::Reactor reactor(2);
  serve::ThreadedAsyncSource a(reactor, a_inner);
  serve::ThreadedAsyncSource b(reactor, b_inner);

  const std::size_t kReads = 8;
  std::vector<std::vector<std::uint8_t>> a_dst(kReads);
  std::vector<std::vector<std::uint8_t>> b_dst(kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    a_dst[i].resize(kBytes);
    b_dst[i].resize(kBytes);
    a.submit(0, a_dst[i].data(), kBytes);
    b.submit(0, b_dst[i].data(), kBytes);
  }
  std::vector<serve::ReadCompletion> a_done;
  std::vector<serve::ReadCompletion> b_done;
  while (a_done.size() < kReads) a.poll(a_done, std::chrono::milliseconds{50});
  while (b_done.size() < kReads) b.poll(b_done, std::chrono::milliseconds{50});
  EXPECT_EQ(a.in_flight(), 0u);
  EXPECT_EQ(b.in_flight(), 0u);
  EXPECT_EQ(a_done.size(), kReads);
  EXPECT_EQ(b_done.size(), kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(a_dst[i], a_data);
    EXPECT_EQ(b_dst[i], b_data);
  }
}

TEST(AsyncSource, DetachRunsTheHookWhenTheLastReadFinishes) {
  std::vector<std::uint8_t> data(64, 7);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  FaultInjectingSource slow(inner);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{60};
  slow.set_fault(0, straggler);
  serve::Reactor reactor(2);

  // Nothing in flight: the hook runs inline.
  {
    serve::ThreadedAsyncSource idle(reactor, inner);
    bool ran = false;
    idle.detach([&ran] { ran = true; });
    EXPECT_TRUE(ran);
  }

  // A straggler in flight: the hook waits for it, then may destroy the
  // session it was handed from.
  auto session = std::make_unique<serve::ThreadedAsyncSource>(reactor, slow);
  std::vector<std::uint8_t> dst(64);
  session->submit(0, dst.data(), 64);
  std::promise<void> drained;
  std::future<void> done = drained.get_future();
  serve::ThreadedAsyncSource* raw = session.release();
  raw->detach([raw, &drained] {
    delete raw;
    drained.set_value();
  });
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds{20}),
            std::future_status::timeout);
  EXPECT_EQ(done.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_EQ(dst, data);
}

TEST(AsyncSource, DestroyingASessionDropsItsQueuedReads) {
  std::vector<std::uint8_t> data(64, 3);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  FaultInjectingSource slow(inner);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{200};
  straggler.delay_reads = 1;
  slow.set_fault(0, straggler);
  serve::Reactor reactor(1);
  std::vector<std::vector<std::uint8_t>> dst(4, std::vector<std::uint8_t>(64));
  {
    serve::ThreadedAsyncSource session(reactor, slow);
    for (auto& d : dst) session.submit(0, d.data(), 64);
    // Once the lone worker is inside the first (slow) read, the other
    // three are still queued behind it.
    while (slow.reads_attempted() == 0) std::this_thread::yield();
  }
  // The running read finished before the session went; the queued ones
  // never ran.
  EXPECT_EQ(slow.reads_attempted(), 1u);
  EXPECT_EQ(dst[0], data);
}

// ---- readiness sets from the hazard DAG ---------------------------------

TEST(PlanReadiness, GroupInputsPartitionTheSurvivorReads) {
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);

  EXPECT_EQ(ready.group_inputs.size(), plan->groups().size());
  EXPECT_EQ(ready.has_rest, plan->rest().has_value());

  // Inputs are survivor reads: no faulty (recovered-by-compute) block may
  // appear, and every group/rest input is in the union.
  std::vector<bool> faulty(code.total_blocks(), false);
  for (const std::size_t b : g.scenario.faulty()) faulty[b] = true;
  std::vector<bool> in_all(code.total_blocks(), false);
  for (const std::size_t b : ready.all_inputs) {
    ASSERT_LT(b, code.total_blocks());
    EXPECT_FALSE(faulty[b]) << "block " << b;
    in_all[b] = true;
  }
  std::size_t group_input_total = 0;
  for (const auto& inputs : ready.group_inputs) {
    group_input_total += inputs.size();
    for (const std::size_t b : inputs) EXPECT_TRUE(in_all[b]);
  }
  EXPECT_GT(group_input_total, 0u);
  for (const std::size_t b : ready.rest_inputs) EXPECT_TRUE(in_all[b]);
}

// ---- decode_overlapped --------------------------------------------------

TEST(Overlap, CleanSourceDecodesAndOverlaps) {
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 1);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto digests = digests_of(snap, code.total_blocks(), 512);
  const auto out = serve::decode_overlapped(
      codec, g.scenario, source, stripe.block_ptrs(), 512, {}, digests);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GT(out.reads_issued, 0u);
  EXPECT_GE(out.first_solve_start_ns, 0);
  EXPECT_GE(out.last_read_complete_ns, 0);
}

TEST(Overlap, GroupSolvesStartBeforeLastSurvivorRead) {
  // The acceptance gate's stage-timestamp assertion: delay one block that
  // some group does NOT need; that group's solve must start while the
  // straggler is still in flight.
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);

  // Find a group g0 and an input block `slow` that g0 does not read.
  std::size_t g0 = ready.group_inputs.size();
  std::size_t slow = code.total_blocks();
  for (std::size_t gi = 0; gi < ready.group_inputs.size() && slow >= code.total_blocks(); ++gi) {
    if (ready.group_inputs[gi].empty()) continue;
    for (const std::size_t b : ready.all_inputs) {
      const auto& inputs = ready.group_inputs[gi];
      if (std::find(inputs.begin(), inputs.end(), b) == inputs.end()) {
        g0 = gi;
        slow = b;
        break;
      }
    }
  }
  ASSERT_LT(g0, ready.group_inputs.size())
      << "fixture must have a group that skips some survivor";

  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 2);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{80};
  source.set_fault(slow, straggler);

  serve::OverlapOptions options;
  options.hedge.enabled = false;  // nothing may rescue the straggler
  const auto out = serve::decode_overlapped(
      codec, g.scenario, source, stripe.block_ptrs(), 512, options);
  ASSERT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  // The stage timestamps prove the overlap: g0 solved while `slow` was
  // still outstanding.
  ASSERT_LT(g0, out.groups.size());
  ASSERT_GE(out.groups[g0].solve_start_ns, 0);
  EXPECT_LT(out.groups[g0].solve_start_ns, out.last_read_complete_ns);
  EXPECT_LT(out.first_solve_start_ns, out.last_read_complete_ns);
  EXPECT_TRUE(out.overlapped);
  // The straggler dominated the fetch span.
  EXPECT_GE(out.last_read_complete_ns, 80'000'000);
}

TEST(Overlap, HedgeClipsTransientStraggler) {
  // A transient straggler (first attempt stuck, duplicates fast) must be
  // beaten by a hedged read: every needed input lands — and the solves
  // run — far below the straggler's delay. (total_ns still includes the
  // final reactor drain: the abandoned primary writes into frame-owned
  // scratch, so the thread-backed backend must let it finish.)
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 3);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);
  ASSERT_FALSE(ready.all_inputs.empty());
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{400};
  straggler.delay_reads = 1;  // only the first attempt is stuck
  source.set_fault(ready.all_inputs.front(), straggler);

  const auto out = serve::decode_overlapped(codec, g.scenario, source,
                                            stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GE(out.hedges_launched, 1u);
  EXPECT_GE(out.hedges_won, 1u);
  // Without the hedge the last needed input would land at >= 400ms; the
  // winning duplicate delivered it (and unblocked every solve) early.
  ASSERT_GE(out.last_read_complete_ns, 0);
  EXPECT_LT(out.last_read_complete_ns, 200'000'000);
  EXPECT_GE(out.rest_solve_start_ns, 0);
  EXPECT_LT(out.rest_solve_start_ns, 200'000'000);
}

TEST(Overlap, TransientFailuresRetryWithoutFallback) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 4);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec transient;
  transient.fail_reads = 2;
  source.set_fault(4, transient);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 3;
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_GE(out.read_failures, 2u);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(Overlap, ExhaustedRetriesFallBackToResilientLadder) {
  // A permanently dead survivor defeats the fast path; the fallback
  // ladder escalates to other survivors and still completes.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 5);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  source.set_fault(2, dead);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 1;
  options.resilience.initial_backoff = std::chrono::microseconds{1};
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.fallback);
  EXPECT_TRUE(out.complete);
  EXPECT_GE(out.resilient.escalations, 1u);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(Overlap, CorruptSurvivorDetectedByDigestsFallsBack) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 6);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const auto digests = digests_of(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec torn;
  torn.corrupt = true;
  torn.corrupt_offset = 32;
  torn.corrupt_bytes = 8;
  source.set_fault(3, torn);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 1;
  options.resilience.initial_backoff = std::chrono::microseconds{1};
  const auto out = serve::decode_overlapped(
      codec, sc, source, stripe.block_ptrs(), 512, options, digests);
  // Every attempt at block 3 CRC-mismatches; the ladder escalates around
  // it and the recovery still verifies.
  EXPECT_GE(out.read_failures, 1u);
  EXPECT_TRUE(out.fallback);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(stripe.equals(snap));

  // A span without one CRC per block is ignored, as decode_resilient
  // ignores it: nothing is digest-checked, even the blocks it covers.
  const std::span<const std::uint32_t> short_span =
      std::span<const std::uint32_t>(digests).first(4);
  Stripe served(code, 512);
  stripe.erase(sc);
  const auto unchecked = serve::decode_overlapped(
      codec, sc, source, served.block_ptrs(), 512, options, short_span);
  const auto serial = codec.decode_resilient(sc, source, stripe.block_ptrs(),
                                             512, options.resilience,
                                             short_span);
  EXPECT_EQ(unchecked.read_failures, 0u);
  EXPECT_FALSE(unchecked.fallback);
  EXPECT_EQ(unchecked.resilient.corruption_detected, 0u);
  EXPECT_EQ(unchecked.complete, serial.complete);
  EXPECT_EQ(serial.corruption_detected, 0u);
}

TEST(Overlap, UndecodableScenarioFallsBackIncomplete) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 7);
  const FailureScenario sc({0, 1, 2, 3});  // beyond m=3
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.fallback);
  EXPECT_FALSE(out.complete);
}

TEST(Overlap, DeadlineReportsTheGroupsItSolved) {
  // A straggler outlives the deadline. Every group that does not read it
  // solves from the survivors that landed, and the report says so: the
  // straggler is the only lost survivor.
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);
  ASSERT_FALSE(ready.group_inputs.empty());
  const auto& g0_inputs = ready.group_inputs.front();
  std::size_t slow = code.total_blocks();
  for (const std::size_t b : ready.all_inputs) {
    if (std::find(g0_inputs.begin(), g0_inputs.end(), b) == g0_inputs.end()) {
      slow = b;
      break;
    }
  }
  ASSERT_LT(slow, code.total_blocks()) << "group 0 must skip some survivor";
  std::vector<std::size_t> expected;
  for (std::size_t gi = 0; gi < ready.group_inputs.size(); ++gi) {
    const auto& inputs = ready.group_inputs[gi];
    if (std::find(inputs.begin(), inputs.end(), slow) != inputs.end()) {
      continue;
    }
    const auto unknowns = plan->groups()[gi].unknowns();
    expected.insert(expected.end(), unknowns.begin(), unknowns.end());
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 13);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const auto digests = digests_of(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{300};
  source.set_fault(slow, straggler);

  serve::OverlapOptions options;
  options.hedge.enabled = false;
  options.resilience.deadline = std::chrono::milliseconds{60};
  const auto out = serve::decode_overlapped(
      codec, g.scenario, source, stripe.block_ptrs(), 512, options, digests);
  EXPECT_TRUE(out.resilient.deadline_exceeded);
  EXPECT_TRUE(out.resilient.partial);
  EXPECT_TRUE(out.fallback);
  EXPECT_EQ(out.resilient.recovered, expected);
  EXPECT_TRUE(stripe.blocks_equal(snap, out.resilient.recovered));
  EXPECT_EQ(out.resilient.source_failed, std::vector<std::size_t>{slow});
}

// ---- the served ladder answers to the chaos judge -----------------------

/// Counts, per block, the read attempts of `inner` and the clean ones:
/// kOk with the block's digest.
class ReadCounter final : public io::BlockSource {
 public:
  ReadCounter(io::BlockSource& inner, std::span<const std::uint32_t> digests)
      : inner_(&inner),
        digests_(digests),
        attempts_(inner.block_count(), 0),
        clean_(inner.block_count(), 0) {}
  std::size_t block_count() const override { return inner_->block_count(); }
  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                      std::size_t bytes) override {
    const io::ReadStatus status = inner_->read(block, dst, bytes);
    const bool clean = status == io::ReadStatus::kOk &&
                       crc32(dst, bytes) == digests_[block];
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempts_[block];
    if (clean) ++clean_[block];
    return status;
  }
  std::size_t attempts(std::size_t block) const { return attempts_[block]; }
  std::size_t clean(std::size_t block) const { return clean_[block]; }

 private:
  io::BlockSource* inner_;
  std::span<const std::uint32_t> digests_;
  std::mutex mutex_;
  std::vector<std::size_t> attempts_;
  std::vector<std::size_t> clean_;
};

/// Every 1- and 2-disk failure of `code`, 2 rounds each, under `ppm_cli
/// chaos`'s CI fault mix (5% permanent, 10% transient, 5% corrupt, seed
/// 7, 512 B blocks, digests attached), decoded by decode_resilient and by
/// decode_overlapped on two sources rolled from one seed, at retry
/// budgets 1 and 3. Hedged or not, the served report must equal the
/// serial one and attempt each survivor at most 1 + retries times;
/// unhedged, it also reads each survivor clean at most once.
void judge_served_chaos(const ErasureCode& code, bool hedge) {
  constexpr std::size_t kBytes = 512;
  const std::size_t total = code.total_blocks();
  Rng fill(7);
  const campaign::ReferenceStripe reference(code, kBytes, fill);
  io::FaultInjectingSource::CampaignOptions faults;
  faults.fail_permanent = 0.05;
  faults.fail_transient = 0.10;
  faults.corrupt = 0.05;
  Codec codec(code);
  for (const std::size_t retries : {std::size_t{1}, std::size_t{3}}) {
    serve::OverlapOptions options;
    options.hedge.enabled = hedge;
    options.resilience.max_read_retries = retries;
    Rng rng(7);
    for (const FailureScenario& sc : campaign::disk_sweep(code, 2)) {
      const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                            sc.faulty().end());
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(code.name() + (hedge ? " hedged" : "") + " retries " +
                     std::to_string(retries) + " round " +
                     std::to_string(round) + " faulty " +
                     std::to_string(sc.faulty().front()) + "..");
        MemoryBlockSource inner(reference.ptrs.data(), total, kBytes);
        FaultInjectingSource serial_source(inner);
        FaultInjectingSource served_source(inner);
        Rng twin = rng;
        serial_source.roll_campaign(faults, rng, exempt);
        served_source.roll_campaign(faults, twin, exempt);
        ReadCounter counted(served_source, reference.digests);

        const auto serial_stripe = reference.erased_copy(sc);
        const auto served_stripe = reference.erased_copy(sc);
        const auto serial = codec.decode_resilient(
            sc, serial_source, serial_stripe->block_ptrs(), kBytes,
            options.resilience, reference.digests);
        const auto out = serve::decode_overlapped(
            codec, sc, counted, served_stripe->block_ptrs(), kBytes, options,
            reference.digests);
        const ResilientResult& served = out.resilient;
        EXPECT_EQ(out.complete, served.complete);
        EXPECT_TRUE(
            served_stripe->blocks_equal(reference.snap, served.recovered));
        EXPECT_EQ(served.final_scenario, serial.final_scenario);
        EXPECT_EQ(served.complete, serial.complete);
        EXPECT_EQ(served.partial, serial.partial);
        EXPECT_EQ(served.escalations, serial.escalations);
        EXPECT_EQ(served.recovered, serial.recovered);
        EXPECT_EQ(served.corrupted, serial.corrupted);
        EXPECT_EQ(served.source_failed, serial.source_failed);
        EXPECT_EQ(served.unrecoverable, serial.unrecoverable);
        for (std::size_t b = 0; b < total; ++b) {
          if (!hedge) {
            EXPECT_LE(counted.clean(b), 1u) << "block " << b;
          }
          EXPECT_LE(counted.attempts(b), 1 + retries) << "block " << b;
        }
      }
    }
  }
}

TEST(Overlap, ChaosJudgeSd) {
  const SDCode code(8, 16, 2, 2, SDCode::recommended_width(8, 16));
  judge_served_chaos(code, false);
  judge_served_chaos(code, true);
}

TEST(Overlap, ChaosJudgeLrc) {
  const LRCCode code(12, 3, 2, 8);
  judge_served_chaos(code, false);
  judge_served_chaos(code, true);
}

TEST(Overlap, ChaosJudgeRs) {
  const RSCode code(10, 4, 8);
  judge_served_chaos(code, false);
  judge_served_chaos(code, true);
}

TEST(Overlap, ChaosJudgeRdp) {
  const RDPCode code(7, 8);
  judge_served_chaos(code, false);
  judge_served_chaos(code, true);
}

TEST(Overlap, HedgesSpendTheRetryBudget) {
  // A straggling survivor that also fails its first two reads. Its hedge
  // is one of the 1 + max_read_retries attempts a retry would have used,
  // so the served decode escalates it as decode_resilient does instead of
  // landing a third read.
  const RSCode code(6, 3, 8);
  Rng fill(9);
  const campaign::ReferenceStripe reference(code, 512, fill);
  const FailureScenario sc({0});
  FaultSpec spec;
  spec.delay = std::chrono::milliseconds{20};
  spec.delay_reads = 1;
  spec.fail_reads = 2;
  MemoryBlockSource inner(reference.ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource serial_source(inner);
  FaultInjectingSource served_source(inner);
  serial_source.set_fault(2, spec);
  served_source.set_fault(2, spec);
  ReadCounter counted(served_source, reference.digests);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 1;
  options.resilience.deadline = std::chrono::seconds{1};  // a hedge basis

  Codec codec(code);
  const auto serial_stripe = reference.erased_copy(sc);
  const auto served_stripe = reference.erased_copy(sc);
  const auto serial = codec.decode_resilient(
      sc, serial_source, serial_stripe->block_ptrs(), 512, options.resilience,
      reference.digests);
  const auto out = serve::decode_overlapped(
      codec, sc, counted, served_stripe->block_ptrs(), 512, options,
      reference.digests);
  ASSERT_EQ(serial.final_scenario, FailureScenario({0, 2}));
  const ResilientResult& served = out.resilient;
  EXPECT_EQ(served.final_scenario, serial.final_scenario);
  EXPECT_EQ(served.escalations, serial.escalations);
  EXPECT_EQ(served.complete, serial.complete);
  EXPECT_EQ(served.recovered, serial.recovered);
  EXPECT_EQ(served.source_failed, serial.source_failed);
  EXPECT_LE(counted.attempts(2), 2u);
  EXPECT_TRUE(served_stripe->equals(reference.snap));
}

// ---- DecodeServer: queue, admission, batching ---------------------------

struct ServedStripe {
  explicit ServedStripe(const ErasureCode& code, std::size_t bytes,
                        const std::vector<const std::uint8_t*>& ptrs,
                        const FailureScenario& sc)
      : stripe(code, bytes), inner(ptrs.data(), code.total_blocks(), bytes),
        source(inner) {
    for (std::size_t b = 0; b < code.total_blocks(); ++b) {
      std::memcpy(stripe.block(b), ptrs[b], bytes);
    }
    stripe.erase(sc);
  }
  Stripe stripe;
  MemoryBlockSource inner;
  FaultInjectingSource source;
};

TEST(DecodeServer, ServesConcurrentRequestsByteIdentically) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 8);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const std::vector<FailureScenario> scenarios{
      FailureScenario({0}), FailureScenario({1, 7}), FailureScenario({3})};

  serve::DecodeServer server(codec, {});
  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
  for (int rep = 0; rep < 3; ++rep) {
    for (const FailureScenario& sc : scenarios) {
      auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
      serve::ServeRequest req;
      req.scenario = sc;
      req.source = &s->source;
      req.blocks = s->stripe.block_ptrs();
      req.block_bytes = 512;
      futures.push_back(server.submit(std::move(req)));
      served.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].has_value()) << i;
    const auto out = futures[i]->get();
    EXPECT_TRUE(out.complete) << i;
    EXPECT_TRUE(served[i]->stripe.equals(snap)) << i;
  }
}

TEST(DecodeServer, BackpressureRejectsWhenQueueIsFull) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 9);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const FailureScenario sc({0});

  serve::ServerOptions options;
  options.queue_depth = 1;
  options.dispatchers = 1;
  options.overlap.hedge.enabled = false;  // hedges would defeat the stall
  options.overlap.reactor_threads = 32;   // stragglers sleep concurrently
  serve::DecodeServer server(codec, options);

  // Request 0 stalls the lone dispatcher: every survivor read sleeps.
  auto slow = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{150};
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    slow->source.set_fault(b, straggler);
  }
  serve::ServeRequest req0;
  req0.scenario = sc;
  req0.source = &slow->source;
  req0.blocks = slow->stripe.block_ptrs();
  req0.block_bytes = 512;
  auto f0 = server.submit(std::move(req0));
  ASSERT_TRUE(f0.has_value());
  // Let the dispatcher pop request 0 so the queue is empty again.
  std::this_thread::sleep_for(std::chrono::milliseconds{30});

  std::vector<std::unique_ptr<ServedStripe>> served;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = &s->source;
    req.blocks = s->stripe.block_ptrs();
    req.block_bytes = 512;
    auto f = server.submit(std::move(req));
    if (f.has_value()) {
      ++accepted;
      futures.push_back(std::move(f));
      served.push_back(std::move(s));
    } else {
      ++rejected;
    }
  }
  // depth 1 + a busy dispatcher: exactly one fits, the rest bounce.
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_TRUE(f0->get().complete);
  for (auto& f : futures) EXPECT_TRUE(f->get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
}

TEST(DecodeServer, BatchesQueuedRequestsSharingAPlan) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 10);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);

  serve::ServerOptions options;
  options.dispatchers = 1;
  options.overlap.hedge.enabled = false;
  options.overlap.reactor_threads = 32;
  serve::DecodeServer server(codec, options);
  ServeMetrics& metrics = serve_metrics();
  const std::size_t batches_before = metrics.batches.value();
  const std::size_t batched_before = metrics.batched_requests.value();

  // A slow leader occupies the dispatcher while three same-plan requests
  // pile up behind it; they must be claimed as one batch.
  const FailureScenario slow_sc({5});
  auto slow = std::make_unique<ServedStripe>(code, 512, ptrs, slow_sc);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{120};
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    slow->source.set_fault(b, straggler);
  }
  serve::ServeRequest req0;
  req0.scenario = slow_sc;
  req0.source = &slow->source;
  req0.blocks = slow->stripe.block_ptrs();
  req0.block_bytes = 512;
  auto f0 = server.submit(std::move(req0));
  ASSERT_TRUE(f0.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds{20});

  const FailureScenario sc({0});
  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::future<serve::OverlapResult>> futures;
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = &s->source;
    req.blocks = s->stripe.block_ptrs();
    req.block_bytes = 512;
    auto f = server.submit(std::move(req));
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
    served.push_back(std::move(s));
  }
  EXPECT_TRUE(f0->get().complete);
  for (auto& f : futures) EXPECT_TRUE(f.get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
  // Leader = one batch of 1; the three followers = one batch of 3.
  EXPECT_EQ(metrics.batches.value() - batches_before, 2u);
  EXPECT_EQ(metrics.batched_requests.value() - batched_before, 4u);
}

TEST(DecodeServer, ShutdownDrainsAdmittedRequests) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 11);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const FailureScenario sc({2});

  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::future<serve::OverlapResult>> futures;
  {
    serve::DecodeServer server(codec, {});
    for (int i = 0; i < 4; ++i) {
      auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
      serve::ServeRequest req;
      req.scenario = sc;
      req.source = &s->source;
      req.blocks = s->stripe.block_ptrs();
      req.block_bytes = 512;
      auto f = server.submit(std::move(req));
      ASSERT_TRUE(f.has_value()) << i;
      futures.push_back(std::move(*f));
      served.push_back(std::move(s));
    }
    server.shutdown();  // must resolve every admitted future first
    EXPECT_FALSE(server.submit(serve::ServeRequest{}).has_value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
}

/// Counts the reads of `inner` executing right now.
class CountingSource final : public io::BlockSource {
 public:
  explicit CountingSource(io::BlockSource& inner) : inner_(&inner) {}
  std::size_t block_count() const override { return inner_->block_count(); }
  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                      std::size_t bytes) override {
    executing_.fetch_add(1);
    const io::ReadStatus status = inner_->read(block, dst, bytes);
    executing_.fetch_sub(1);
    return status;
  }
  int executing() const { return executing_.load(); }

 private:
  io::BlockSource* inner_;
  std::atomic<int> executing_{0};
};

/// One dispatcher, request A whose first read of one survivor sleeps
/// 300 ms (hedging clips it, so A's decode returns early and leaves that
/// read as its tail), and a clean request B.
struct TailFixture {
  static constexpr auto kStraggle = std::chrono::milliseconds{300};

  TailFixture()
      : code(6, 3, 8),
        codec(code),
        reference(code, 512),
        snap(test::fill_and_encode(code, reference, 12)),
        ptrs(snapshot_ptrs(snap, code.total_blocks(), 512)),
        a(code, 512, ptrs, a_sc),
        b(code, 512, ptrs, b_sc),
        counted(a.source) {
    const auto plan = codec.plan_for(a_sc);
    const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);
    FaultSpec straggler;
    straggler.delay = kStraggle;
    straggler.delay_reads = 1;
    a.source.set_fault(ready.all_inputs.front(), straggler);
    options.dispatchers = 1;
  }

  static serve::ServeRequest request(const FailureScenario& sc,
                                     io::BlockSource& source,
                                     ServedStripe& s) {
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = &source;
    req.blocks = s.stripe.block_ptrs();
    req.block_bytes = 512;
    return req;
  }

  const RSCode code;
  Codec codec;
  Stripe reference;
  const std::vector<std::uint8_t> snap;
  const std::vector<const std::uint8_t*> ptrs;
  const FailureScenario a_sc{{0}};
  const FailureScenario b_sc{{1}};
  ServedStripe a;
  ServedStripe b;
  CountingSource counted;  ///< A's reads go through here
  serve::ServerOptions options;
};

TEST(DecodeServer, HedgedTailDoesNotHoldTheDispatcher) {
  TailFixture f;
  serve::DecodeServer server(f.codec, f.options);
  auto fa = server.submit(TailFixture::request(f.a_sc, f.counted, f.a));
  auto fb = server.submit(TailFixture::request(f.b_sc, f.b.source, f.b));
  ASSERT_TRUE(fa.has_value());
  ASSERT_TRUE(fb.has_value());
  // B queued behind A on the lone dispatcher, yet resolves long before
  // A's straggler lands: the dispatcher did not wait for A's tail.
  ASSERT_EQ(fb->wait_for(std::chrono::milliseconds{150}),
            std::future_status::ready);
  EXPECT_EQ(fa->wait_for(std::chrono::seconds{0}),
            std::future_status::timeout);
  EXPECT_TRUE(fb->get().complete);
  EXPECT_TRUE(f.b.stripe.equals(f.snap));
  const auto out = fa->get();
  EXPECT_TRUE(out.complete);
  EXPECT_GE(out.hedges_won, 1u);
  EXPECT_TRUE(f.a.stripe.equals(f.snap));
}

TEST(DecodeServer, FutureResolvesOnlyAfterItsTailDrains) {
  TailFixture f;
  serve::DecodeServer server(f.codec, f.options);
  auto fa = server.submit(TailFixture::request(f.a_sc, f.counted, f.a));
  ASSERT_TRUE(fa.has_value());
  // The moment A's future turns ready, none of its reads may still run:
  // its source is the caller's to free from then on.
  while (fa->wait_for(std::chrono::milliseconds{1}) !=
         std::future_status::ready) {
  }
  EXPECT_EQ(f.counted.executing(), 0);
  const auto out = fa->get();
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(f.a.stripe.equals(f.snap));
  // The hedge won early, but total_ns runs until the straggler landed.
  EXPECT_LT(out.last_read_complete_ns, out.total_ns);
  EXPECT_GE(out.total_ns,
            std::chrono::nanoseconds{TailFixture::kStraggle}.count());
}

TEST(DecodeServer, ShutdownResolvesFuturesWithTailsInFlight) {
  TailFixture f;
  std::optional<std::future<serve::OverlapResult>> fa;
  {
    serve::DecodeServer server(f.codec, f.options);
    fa = server.submit(TailFixture::request(f.a_sc, f.counted, f.a));
    auto fb = server.submit(TailFixture::request(f.b_sc, f.b.source, f.b));
    ASSERT_TRUE(fa.has_value());
    ASSERT_TRUE(fb.has_value());
    // B done means A's decode has returned with its tail in flight.
    ASSERT_EQ(fb->wait_for(std::chrono::milliseconds{150}),
              std::future_status::ready);
    server.shutdown();
    EXPECT_EQ(fa->wait_for(std::chrono::seconds{0}),
              std::future_status::ready);
    EXPECT_EQ(f.counted.executing(), 0);
  }
  EXPECT_TRUE(fa->get().complete);
  EXPECT_TRUE(f.a.stripe.equals(f.snap));
}

// ---- concurrent multi-reader soak (satellite: thread-safe injector) -----

TEST(FaultSoak, ConcurrentReadersSeeAtMostOnceAttemptAccounting) {
  // 8 threads share one FaultInjectingSource. Fault budgets are claimed
  // atomically per attempt, so exactly fail_reads reads fail and exactly
  // delay_reads are delayed — no double-spend, no lost claim — and every
  // successful read returns intact bytes. Run under TSan in CI.
  const std::size_t kBlocks = 4;
  const std::size_t kBytes = 256;
  const std::size_t kThreads = 8;
  std::vector<std::uint8_t> data(kBlocks * kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  const auto ptrs = snapshot_ptrs(data, kBlocks, kBytes);
  MemoryBlockSource inner(ptrs.data(), kBlocks, kBytes);
  FaultInjectingSource source(inner);
  FaultSpec flaky;
  flaky.fail_reads = 3;
  source.set_fault(0, flaky);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{2};
  straggler.delay_reads = 2;
  source.set_fault(1, straggler);

  std::vector<std::size_t> failures(kThreads, 0);
  std::vector<std::size_t> bad_bytes(kThreads, 0);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint8_t> dst(kBytes);
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const io::ReadStatus status = source.read(b, dst.data(), kBytes);
        if (status != io::ReadStatus::kOk) {
          ++failures[t];
        } else if (std::memcmp(dst.data(), ptrs[b], kBytes) != 0) {
          ++bad_bytes[t];
        }
      }
    });
  }
  for (auto& r : readers) r.join();

  std::size_t total_failures = 0;
  std::size_t total_bad = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_failures += failures[t];
    total_bad += bad_bytes[t];
  }
  EXPECT_EQ(total_failures, 3u);  // fail_reads claimed exactly once each
  EXPECT_EQ(total_bad, 0u);
  EXPECT_EQ(source.reads_attempted(), kThreads * kBlocks);
  EXPECT_EQ(source.failures_injected(), 3u);
  EXPECT_EQ(source.delays_injected(), 2u);
}

// ---- serve metrics ------------------------------------------------------

TEST(ServeMetricsJson, HasStableKeysAndResets) {
  ServeMetrics m;
  m.requests.add(5);
  m.hedges_won.add(2);
  m.queue_seconds.record_nanos(1000);
  const std::string json = m.to_json();
  for (const char* key :
       {"\"serve\"", "\"requests\":5", "\"hedges_won\":2", "\"latency\"",
        "\"queue\"", "\"fetch\"", "\"solve\"", "\"request\"", "\"read\"",
        "\"p999_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  m.reset();
  EXPECT_EQ(m.requests.value(), 0u);
  EXPECT_EQ(m.queue_seconds.count(), 0u);
}

TEST(Overlap, RefusesBlocksThatSplitASymbol) {
  // Both overloads refuse 4097-byte GF(2^16) blocks before any read.
  const SDCode code(6, 4, 2, 2, 16);
  Codec codec(code);
  Stripe stripe(code, 4098);
  const auto snap = test::fill_and_encode(code, stripe, 4);
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const auto erased = stripe.snapshot();
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 4098);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 4097);

  const auto standalone = serve::decode_overlapped(codec, sc, source,
                                                   stripe.block_ptrs(), 4097);
  EXPECT_FALSE(standalone.complete);
  EXPECT_EQ(standalone.reads_issued, 0u);
  EXPECT_EQ(standalone.resilient.unrecoverable,
            (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(stripe.equals(erased));

  serve::Reactor reactor(1);
  serve::OverlapTail tail;
  const auto served =
      serve::decode_overlapped(codec, sc, source, stripe.block_ptrs(), 4097,
                               {}, {}, reactor, tail);
  EXPECT_FALSE(served.complete);
  EXPECT_EQ(served.reads_issued, 0u);
  EXPECT_TRUE(stripe.equals(erased));
}

}  // namespace
}  // namespace ppm
