// Continuous scrub & proactive repair (src/scrub/): token-bucket pacing,
// the latent-error arrival process, write-side fault injection, the
// sweep/rank/repair cycle, the crash-consistent repair journal, and the
// zero-trust replay contract — docs/ROBUSTNESS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "codec/codec.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "decode/scenario.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "scrub/journal.h"
#include "scrub/rate_limiter.h"
#include "scrub/scrub.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

using io::FaultInjectingSource;
using io::FaultSpec;
using io::MemoryBlockStore;
using io::ReadStatus;
using io::WriteStatus;

using test::TempDir;

// One stripe of "storage" behind the read/write fault seam the scrubber
// patrols through, plus the decode scratch and reference digests a
// ScrubTarget needs, filled from its own seed.
struct TestStripe : campaign::PatrolledStripe {
  TestStripe(const ErasureCode& code, std::size_t bytes, std::uint64_t seed)
      : TestStripe(code, bytes, Rng(seed)) {}
  TestStripe(const ErasureCode& code, std::size_t bytes, Rng fill)
      : PatrolledStripe(code, bytes, fill) {}
};

FaultSpec corrupt_spec(std::size_t offset = 0, std::size_t bytes = 8) {
  FaultSpec spec;
  spec.corrupt = true;
  spec.corrupt_offset = offset;
  spec.corrupt_bytes = bytes;
  return spec;
}

FaultSpec dead_spec() {
  FaultSpec spec;
  spec.fail_always = true;
  return spec;
}

// ---- TokenBucket: pure debt-model math -----------------------------------

TEST(TokenBucket, BurstGrantsWithoutWaiting) {
  scrub::TokenBucket bucket(1000.0, 4000);  // 1 KB/s, 4 KB banked
  EXPECT_EQ(bucket.acquire_at(4000, 0).count(), 0);
}

TEST(TokenBucket, DebtWaitIsProportionalToOverdraft) {
  scrub::TokenBucket bucket(1000.0, 1000);
  // Drain the burst, then overdraw by 500 bytes: at 1000 B/s the debt
  // refills in exactly half a second.
  EXPECT_EQ(bucket.acquire_at(1000, 0).count(), 0);
  const auto wait = bucket.acquire_at(500, 0);
  EXPECT_EQ(wait.count(), 500000000);
}

TEST(TokenBucket, RefillsAtTheConfiguredRate) {
  scrub::TokenBucket bucket(1000.0, 1000);
  EXPECT_EQ(bucket.acquire_at(1000, 0).count(), 0);
  // After one second the bucket banked another 1000 bytes.
  EXPECT_EQ(bucket.acquire_at(1000, 1000000000).count(), 0);
  // Only 100 ms later just 100 bytes accrued: 400 bytes of debt.
  EXPECT_EQ(bucket.acquire_at(500, 1100000000).count(), 400000000);
}

TEST(TokenBucket, RefillNeverBanksBeyondTheBurst) {
  scrub::TokenBucket bucket(1000000.0, 2000);
  // An hour of idle refill still caps at 2000 banked bytes.
  EXPECT_EQ(bucket.acquire_at(2000, 3600000000000).count(), 0);
  EXPECT_GT(bucket.acquire_at(1, 3600000000000).count(), 0);
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  scrub::TokenBucket bucket(0.0, 1);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_EQ(bucket.acquire_at(1 << 30, 0).count(), 0);
  EXPECT_EQ(bucket.waits(), 0u);
}

TEST(TokenBucket, RateLimitedSourcePaysPerRead) {
  const std::size_t kBytes = 64;
  std::vector<std::uint8_t> block(kBytes, 0xAB);
  const std::uint8_t* ptr = block.data();
  io::MemoryBlockSource inner(&ptr, 1, kBytes);
  // Slow enough that the bucket cannot refill a full burst between
  // back-to-back reads even under sanitizer slowdown (64 B refill in
  // 1ms), fast enough that the debt sleeps total ~3ms.
  scrub::TokenBucket bucket(64.0 * 1000, kBytes);
  scrub::RateLimitedSource paced(inner, bucket);
  std::vector<std::uint8_t> dst(kBytes);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(paced.read(0, dst.data(), kBytes), ReadStatus::kOk);
  }
  EXPECT_EQ(std::memcmp(dst.data(), block.data(), kBytes), 0);
  EXPECT_GE(bucket.waits(), 1u);  // burst == one read; later reads waited
}

// ---- Latent-error arrival process ----------------------------------------

TEST(Arrivals, ScheduleIsDeterministicFromTheSeed) {
  const std::size_t kBlocks = 64;
  std::vector<std::uint8_t> data(kBlocks * 16);
  std::vector<const std::uint8_t*> ptrs(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) ptrs[b] = data.data() + b * 16;
  io::MemoryBlockSource inner(ptrs.data(), kBlocks, 16);

  FaultInjectingSource::ArrivalOptions options;
  options.fail_permanent = 0.2;
  options.corrupt = 0.3;
  options.epochs = 5;

  FaultInjectingSource a(inner);
  FaultInjectingSource b(inner);
  Rng rng_a(99);
  Rng rng_b(99);
  a.roll_arrivals(options, rng_a);
  b.roll_arrivals(options, rng_b);
  ASSERT_FALSE(a.arrivals().empty());
  ASSERT_EQ(a.arrivals().size(), b.arrivals().size());
  for (std::size_t i = 0; i < a.arrivals().size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].block, b.arrivals()[i].block);
    EXPECT_EQ(a.arrivals()[i].epoch, b.arrivals()[i].epoch);
    EXPECT_EQ(a.arrivals()[i].spec.fail_always,
              b.arrivals()[i].spec.fail_always);
    EXPECT_EQ(a.arrivals()[i].spec.corrupt, b.arrivals()[i].spec.corrupt);
  }
  // Sorted by (epoch, block): the oracle order campaign drivers rely on.
  for (std::size_t i = 1; i < a.arrivals().size(); ++i) {
    const auto& prev = a.arrivals()[i - 1];
    const auto& cur = a.arrivals()[i];
    EXPECT_TRUE(prev.epoch < cur.epoch ||
                (prev.epoch == cur.epoch && prev.block < cur.block));
  }
}

TEST(Arrivals, ErrorsLandOnlyWhenTheirEpochIsReached) {
  const std::size_t kBytes = 32;
  std::vector<std::uint8_t> data(4 * kBytes, 0x5C);
  std::vector<const std::uint8_t*> ptrs(4);
  for (std::size_t b = 0; b < 4; ++b) ptrs[b] = data.data() + b * kBytes;
  io::MemoryBlockSource inner(ptrs.data(), 4, kBytes);
  FaultInjectingSource source(inner);

  // Dense probabilities so the 4-block roll almost surely schedules
  // something; then judge strictly against the rolled schedule.
  FaultInjectingSource::ArrivalOptions options;
  options.fail_permanent = 0.5;
  options.corrupt = 0.5;
  options.epochs = 3;
  Rng rng(7);
  source.roll_arrivals(options, rng);
  ASSERT_FALSE(source.arrivals().empty());

  std::vector<std::uint8_t> dst(kBytes);
  std::size_t landed = 0;
  for (std::size_t epoch = 1; epoch <= options.epochs; ++epoch) {
    landed += source.advance_epoch();
    EXPECT_EQ(source.epoch(), epoch);
    for (const auto& arrival : source.arrivals()) {
      const ReadStatus status = source.read(arrival.block, dst.data(), kBytes);
      const bool clean = status == ReadStatus::kOk &&
                         std::memcmp(dst.data(), ptrs[arrival.block],
                                     kBytes) == 0;
      if (arrival.epoch <= epoch) {
        EXPECT_FALSE(clean) << "arrival should have landed by epoch "
                            << epoch;
      } else {
        EXPECT_TRUE(clean) << "arrival landed early at epoch " << epoch;
      }
    }
  }
  EXPECT_EQ(landed, source.arrivals().size());
}

// ---- Write-side faults ----------------------------------------------------

TEST(WriteFaults, DiskFullFailsEveryAttempt) {
  std::vector<std::uint8_t> data(64, 0);
  std::uint8_t* ptr = data.data();
  MemoryBlockStore store(&ptr, 1, 64);
  FaultInjectingSource seam(store, store);
  FaultSpec spec;
  spec.fail_write_always = true;
  seam.set_fault(0, spec);

  const std::vector<std::uint8_t> payload(64, 0xEE);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kFailed);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kFailed);
  EXPECT_EQ(seam.write_failures_injected(), 2u);
  EXPECT_NE(data[0], 0xEE);  // nothing landed
}

TEST(WriteFaults, TransientWriteFailureRecovers) {
  std::vector<std::uint8_t> data(64, 0);
  std::uint8_t* ptr = data.data();
  MemoryBlockStore store(&ptr, 1, 64);
  FaultInjectingSource seam(store, store);
  FaultSpec spec;
  spec.fail_writes = 2;
  seam.set_fault(0, spec);

  const std::vector<std::uint8_t> payload(64, 0xEE);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kFailed);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kFailed);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kOk);
  EXPECT_EQ(data[0], 0xEE);
}

TEST(WriteFaults, ShortWriteTearsThePrefixThenFails) {
  std::vector<std::uint8_t> data(64, 0);
  std::uint8_t* ptr = data.data();
  MemoryBlockStore store(&ptr, 1, 64);
  FaultInjectingSource seam(store, store);
  FaultSpec spec;
  spec.short_write_bytes = 16;
  seam.set_fault(0, spec);

  const std::vector<std::uint8_t> payload(64, 0xEE);
  EXPECT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kFailed);
  // Exactly the torn prefix landed — the crash window the journal's
  // write-ahead contract exists for.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(data[i], 0xEE);
  for (std::size_t i = 16; i < 64; ++i) EXPECT_EQ(data[i], 0x00);
}

TEST(WriteFaults, SuccessfulWriteHealsReadFaults) {
  std::vector<std::uint8_t> data(64, 0x11);
  std::uint8_t* ptr = data.data();
  MemoryBlockStore store(&ptr, 1, 64);
  FaultInjectingSource seam(store, store);
  seam.set_fault(0, corrupt_spec());

  std::vector<std::uint8_t> dst(64);
  ASSERT_EQ(seam.read(0, dst.data(), 64), ReadStatus::kOk);
  EXPECT_NE(std::memcmp(dst.data(), data.data(), 64), 0);  // corrupted

  const std::vector<std::uint8_t> payload(64, 0xEE);
  ASSERT_EQ(seam.write(0, payload.data(), 64), WriteStatus::kOk);
  ASSERT_EQ(seam.read(0, dst.data(), 64), ReadStatus::kOk);
  EXPECT_EQ(std::memcmp(dst.data(), payload.data(), 64), 0);  // healed
}

TEST(WriteFaults, WriteWithoutAWriterFails) {
  std::vector<std::uint8_t> data(64, 0);
  const std::uint8_t* ptr = data.data();
  io::MemoryBlockSource inner(&ptr, 1, 64);
  FaultInjectingSource seam(inner);  // read-only wrap
  EXPECT_EQ(seam.write(0, data.data(), 64), WriteStatus::kFailed);
}

// ---- Repair journal -------------------------------------------------------

TEST(RepairJournal, IntentThenCommitRoundTrips) {
  TempDir dir("journal_roundtrip");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("stripe-0", {2, 5}, {0xAAu, 0xBBu});
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(journal.commit(*seq, {2, 5}, {0xAAu, 0xBBu}));

  const auto records = journal.load_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, *seq);
  EXPECT_EQ(records[0].stripe_id, "stripe-0");
  EXPECT_TRUE(records[0].committed);
  EXPECT_EQ(records[0].blocks, (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(records[0].crc, (std::vector<std::uint32_t>{0xAAu, 0xBBu}));
}

TEST(RepairJournal, CommitMayClaimASubsetOfTheIntent) {
  TempDir dir("journal_subset");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("s", {1, 2, 3}, {1u, 2u, 3u});
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(journal.commit(*seq, {2}, {2u}));
  const auto records = journal.load_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].committed);
  EXPECT_EQ(records[0].blocks, (std::vector<std::size_t>{2}));
}

TEST(RepairJournal, SequenceResumesPastExistingRecords) {
  TempDir dir("journal_resume");
  std::uint64_t first = 0;
  {
    scrub::RepairJournal journal(dir.path());
    first = journal.begin("s", {0}, {0u}).value();
  }
  scrub::RepairJournal journal(dir.path());
  const auto next = journal.begin("s", {1}, {0u});
  ASSERT_TRUE(next.has_value());
  EXPECT_GT(*next, first);
}

TEST(RepairJournal, OnlyTheBeginningInstanceCanCommit) {
  TempDir dir("journal_instance");
  std::uint64_t seq = 0;
  {
    scrub::RepairJournal journal(dir.path());
    seq = journal.begin("s", {0}, {0u}).value();
  }
  // A restarted process must never seal a dead repairer's intent: it has
  // no idea whether the repair happened.
  scrub::RepairJournal journal(dir.path());
  EXPECT_FALSE(journal.commit(seq, {0}, {0u}));
  const auto records = journal.load_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].committed);
}

TEST(RepairJournal, TamperedRecordsAreQuarantinedOnLoad) {
  TempDir dir("journal_tamper");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("s", {0}, {0x1234u});
  ASSERT_TRUE(seq.has_value());
  const fs::path record =
      dir.path() / scrub::RepairJournal::record_filename(*seq);
  ASSERT_TRUE(fs::exists(record));
  {
    std::fstream f(record, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('!');  // flip payload bytes under the seal
  }
  EXPECT_TRUE(journal.load_all().empty());
  EXPECT_FALSE(fs::exists(record));
  bool quarantined_on_disk = false;
  for (const auto& entry : journal.list()) {
    quarantined_on_disk |= entry.quarantined;
  }
  EXPECT_TRUE(quarantined_on_disk);
}

TEST(RepairJournal, GcKeepsIntentsAndANewestQuarantineWindow) {
  TempDir dir("journal_gc");
  scrub::RepairJournal journal(dir.path());
  // One committed, one intent, three quarantined, one stale tmp.
  const auto committed = journal.begin("a", {0}, {0u});
  ASSERT_TRUE(journal.commit(*committed, {0}, {0u}));
  const auto intent = journal.begin("b", {1}, {0u});
  ASSERT_TRUE(intent.has_value());
  for (int i = 0; i < 3; ++i) {
    test::write_file(
        dir.path() / ("rot" + std::to_string(i) + ".scrubj.quarantined"),
        "junk");
  }
  test::write_file(dir.path() / "stale.scrubj.tmp", "torn");

  const auto report = journal.gc(/*keep_quarantined=*/1);
  EXPECT_EQ(report.removed_committed, 1u);
  EXPECT_EQ(report.removed_quarantined, 2u);
  EXPECT_EQ(report.removed_tmp, 1u);
  // The intent survives: it is actionable until a commit supersedes it.
  const auto records = journal.load_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, *intent);
  EXPECT_FALSE(records[0].committed);
}

TEST(RepairJournal, BlockedQuarantineRemovesTheRecordUncounted) {
  // A directory squatting on the quarantine name blocks the rename: the
  // rotten record must still never be served again (it is removed), and
  // the quarantine counter must not claim a rename that did not happen.
  TempDir dir("journal_quarantine_blocked");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("s", {0}, {0u});
  ASSERT_TRUE(seq.has_value());
  const fs::path record =
      dir.path() / scrub::RepairJournal::record_filename(*seq);
  std::string bytes = test::read_file(record);
  bytes.back() ^= 0x01;
  test::write_file(record, bytes);
  fs::create_directories(record.string() + ".quarantined");

  scrub_metrics().reset();
  EXPECT_TRUE(journal.load_all().empty());
  EXPECT_FALSE(fs::exists(record));
  EXPECT_EQ(scrub_metrics().journal_quarantined.value(), 0u);
}

TEST(RepairJournal, ListShowsOnlyRecordsAndQuarantinedFiles) {
  TempDir dir("journal_list");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("s", {0}, {0u});
  ASSERT_TRUE(seq.has_value());
  const std::string name = scrub::RepairJournal::record_filename(*seq);
  test::write_file(dir.path() / (name + ".tmp"), "torn");
  test::write_file(dir.path() / "notes.txt", "foreign");
  test::write_file(dir.path() / "rep-old.scrubj.quarantined", "rot");

  std::vector<std::string> listed;
  for (const auto& entry : journal.list()) listed.push_back(entry.filename);
  EXPECT_EQ(listed,
            (std::vector<std::string>{name, "rep-old.scrubj.quarantined"}));
}

TEST(RepairJournal, StoreFailuresAreCountedNotThrown) {
  TempDir dir("journal_badpath");
  // A *file* where the journal directory should be: every record write
  // fails, none throws, and the failure is visible in the metrics.
  const auto path = dir.path() / "journal";
  test::write_file(path, "not a directory");
  scrub_metrics().reset();
  scrub::RepairJournal journal(path);
  EXPECT_FALSE(journal.begin("s", {0}, {0u}).has_value());
  EXPECT_GE(scrub_metrics().journal_store_failures.value(), 1u);
}

// ---- Sweep: detection -----------------------------------------------------

TEST(Scrub, SweepDetectsCorruptionAndDeadBlocks) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe clean(code, 512, 1);
  TestStripe sick(code, 512, 2);
  sick.seam->set_fault(1, corrupt_spec());
  sick.seam->set_fault(4, dead_spec());

  scrub_metrics().reset();
  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{});
  scrubber.add_target(clean.target("clean"));
  scrubber.add_target(sick.target("sick"));

  const scrub::SweepReport report = scrubber.sweep();
  ASSERT_EQ(report.stripes.size(), 2u);
  EXPECT_TRUE(report.stripes[0].latent.empty());
  EXPECT_EQ(report.stripes[1].latent, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(report.stripes[1].crc_mismatches, 1u);
  EXPECT_EQ(report.stripes[1].read_failures, 1u);
  EXPECT_EQ(report.latent_total, 2u);
  EXPECT_EQ(report.damaged(), 1u);
  EXPECT_EQ(report.blocks_scanned, 2 * code.total_blocks());
  EXPECT_EQ(scrub_metrics().latent_detected.value(), 2u);
}

TEST(Scrub, SweepSkipsKnownFaultyBlocks) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 3);
  stripe.seam->set_fault(2, dead_spec());

  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{});
  scrub::ScrubTarget target = stripe.target("s");
  target.known_faulty = FailureScenario({2});
  scrubber.add_target(std::move(target));

  const scrub::SweepReport report = scrubber.sweep();
  // Already-known damage is not re-detected as latent…
  EXPECT_TRUE(report.stripes[0].latent.empty());
  EXPECT_EQ(report.blocks_scanned, code.total_blocks() - 1);
  // …but the stripe still counts as damaged.
  EXPECT_EQ(report.damaged(), 1u);
}

TEST(Scrub, SpotCheckRunsOnHealthyStripes) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 4);
  scrub::ScrubOptions options;
  options.spot_check_every = 1;  // every sweep
  scrub::Scrubber scrubber(codec, options);
  scrubber.add_target(stripe.target("s"));

  const scrub::SweepReport report = scrubber.sweep();
  EXPECT_EQ(report.spot_checks, 1u);
  EXPECT_EQ(report.spot_check_failures, 0u);
  EXPECT_TRUE(report.stripes[0].spot_checked);
  EXPECT_TRUE(report.stripes[0].spot_check_ok);
}

// ---- Risk ranking ---------------------------------------------------------

TEST(Scrub, RankingOrdersByDistanceToUnrecoverability) {
  const RSCode code(6, 3, 8);  // capability: any 3 erasures
  Codec codec(code);
  TestStripe light(code, 512, 5);   // 1 erasure: 2 more to failure
  TestStripe heavy(code, 512, 6);   // 3 erasures: the next one kills it
  TestStripe dead(code, 512, 7);    // 4 erasures: already undecodable
  light.seam->set_fault(0, dead_spec());
  for (std::size_t b : {0, 1, 2}) heavy.seam->set_fault(b, dead_spec());
  for (std::size_t b : {0, 1, 2, 3}) dead.seam->set_fault(b, dead_spec());

  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{});
  scrubber.add_target(light.target("light"));
  scrubber.add_target(heavy.target("heavy"));
  scrubber.add_target(dead.target("dead"));

  const scrub::SweepReport sweep = scrubber.sweep();
  const auto ranking = scrubber.rank(sweep);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].stripe_id, "dead");
  EXPECT_FALSE(ranking[0].decodable);
  EXPECT_EQ(ranking[0].erasures_to_failure, 0u);
  EXPECT_EQ(ranking[1].stripe_id, "heavy");
  EXPECT_TRUE(ranking[1].decodable);
  EXPECT_EQ(ranking[1].erasures_to_failure, 1u);
  EXPECT_EQ(ranking[2].stripe_id, "light");
  EXPECT_EQ(ranking[2].erasures_to_failure, 2u);
  EXPECT_GT(ranking[0].risk, ranking[1].risk);
  EXPECT_GT(ranking[1].risk, ranking[2].risk);
}

TEST(Scrub, CoupledDamageRanksAboveIsolatedDamage) {
  // SD code: one faulty block inside a group is isolated (group solve);
  // damage the partition cannot isolate needs the global H_rest solve
  // and sits closer to the cliff.
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  Codec codec(code);
  TestStripe isolated(code, 256, 8);
  TestStripe coupled(code, 256, 9);
  isolated.seam->set_fault(0, corrupt_spec());  // single block, one group
  // Two blocks in the same row-set: the s global checks must engage.
  coupled.seam->set_fault(0, corrupt_spec());
  coupled.seam->set_fault(1, corrupt_spec());

  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{});
  scrubber.add_target(isolated.target("isolated"));
  scrubber.add_target(coupled.target("coupled"));
  const auto ranking = scrubber.rank(scrubber.sweep());
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].stripe_id, "coupled");
  EXPECT_GE(ranking[0].coupled_faulty, ranking[1].coupled_faulty);
}

// ---- Repair ---------------------------------------------------------------

TEST(Scrub, CycleRepairsDamageByteIdentically) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 10);
  stripe.seam->set_fault(2, corrupt_spec(7, 16));
  stripe.seam->set_fault(5, dead_spec());

  scrub_metrics().reset();
  TempDir dir("cycle_repair");
  scrub::RepairJournal journal(dir.path());
  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{}, &journal);
  scrubber.add_target(stripe.target("s"));

  const scrub::CycleReport cycle = scrubber.run_cycle();
  EXPECT_EQ(cycle.sweep.latent_total, 2u);
  ASSERT_EQ(cycle.repair.outcomes.size(), 1u);
  const scrub::RepairOutcome& outcome = cycle.repair.outcomes[0];
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.repaired, (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(outcome.written_back, (std::vector<std::size_t>{2, 5}));

  // The storage itself is healed — not just the scratch buffers.
  EXPECT_TRUE(stripe.storage.equals(stripe.snap));
  EXPECT_TRUE(scrubber.sweep().stripes[0].latent.empty());
  EXPECT_EQ(scrub_metrics().blocks_repaired.value(), 2u);
  EXPECT_EQ(scrub_metrics().writeback_failures.value(), 0u);

  // The journal holds one committed record claiming exactly the repair.
  const auto records = journal.load_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].committed);
  EXPECT_EQ(records[0].blocks, (std::vector<std::size_t>{2, 5}));
}

TEST(Scrub, RepairIsAtMostOncePerStripe) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 11);
  stripe.seam->set_fault(3, corrupt_spec());

  scrub_metrics().reset();
  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{});
  scrubber.add_target(stripe.target("s"));
  const scrub::SweepReport sweep = scrubber.sweep();
  const auto ranking = scrubber.rank(sweep);

  // Two repairers race over the same ranking: exactly one repairs, the
  // other skips (claimed concurrently, or healed by the first).
  auto a = std::async(std::launch::async,
                      [&] { return scrubber.repair(ranking); });
  auto b = std::async(std::launch::async,
                      [&] { return scrubber.repair(ranking); });
  const scrub::RepairReport ra = a.get();
  const scrub::RepairReport rb = b.get();
  EXPECT_EQ(ra.attempted + rb.attempted, 1u);
  EXPECT_EQ(ra.skipped + rb.skipped, 1u);
  EXPECT_EQ(scrub_metrics().writebacks.value(), 1u);
  EXPECT_TRUE(stripe.storage.equals(stripe.snap));
}

TEST(Scrub, WritebackFailureIsCountedAndNotCommittedAsRepaired) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 12);
  FaultSpec spec = corrupt_spec();
  spec.fail_write_always = true;  // detected, decodable, not writable
  stripe.seam->set_fault(2, spec);

  scrub_metrics().reset();
  TempDir dir("writeback_fail");
  scrub::RepairJournal journal(dir.path());
  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{}, &journal);
  scrubber.add_target(stripe.target("s"));

  const scrub::CycleReport cycle = scrubber.run_cycle();
  ASSERT_EQ(cycle.repair.outcomes.size(), 1u);
  EXPECT_FALSE(cycle.repair.outcomes[0].complete);
  EXPECT_TRUE(cycle.repair.outcomes[0].written_back.empty());
  EXPECT_GE(scrub_metrics().writeback_failures.value(), 1u);
  // The committed record claims nothing: a failed writeback must never
  // read back as "repaired".
  for (const auto& record : journal.load_all()) {
    if (record.committed) {
      EXPECT_TRUE(record.blocks.empty());
    }
  }
}

// ---- Crash consistency & zero-trust replay --------------------------------

TEST(Scrub, CrashBetweenIntentAndCommitLeavesActionableEvidence) {
  // The drill `ppm_cli scrub --drill 1` runs: a repair crashes between
  // journal intent and commit and leaves block 1's corruption in place;
  // after a restart, replay surfaces exactly that damage and the pending
  // intent with no false claim, and the next cycle heals it.
  const RSCode code(6, 3, 8);
  TempDir dir("crash_drill");
  campaign::ScrubOptions options;
  options.block_bytes = 512;
  options.stripes = 1;
  options.seed = 13;
  options.journal_dir = dir.path().string();
  const campaign::DrillReport report = campaign::run_drill(code, options);
  EXPECT_EQ(report.verdict.failures, std::vector<std::string>{});
  EXPECT_EQ(report.pending_intents, 1u);
  EXPECT_EQ(report.false_claims, 0u);
  EXPECT_GE(report.verified_commits, 1u);
}

TEST(Scrub, ReplayQuarantinesFalseRepairedClaims) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 14);

  TempDir dir("false_claim");
  scrub::RepairJournal journal(dir.path());
  // A committed record claiming block 3 was repaired — while the storage
  // actually holds garbage there. Zero trust: the claim must die.
  const auto seq = journal.begin("s", {3}, {stripe.digests[3]});
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(journal.commit(*seq, {3}, {stripe.digests[3]}));
  std::memset(stripe.storage.block(3), 0x5A, 512);

  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{}, &journal);
  scrubber.add_target(stripe.target("s"));
  const scrub::ReplayReport replay = scrubber.replay();
  EXPECT_EQ(replay.false_claims, 1u);
  EXPECT_EQ(replay.verified_commits, 0u);
  EXPECT_EQ(replay.quarantined, 1u);
  // The lying record is gone from the journal proper.
  EXPECT_TRUE(journal.load_all().empty());
}

TEST(Scrub, ReplayQuarantinesRecordsNamingNoKnownStripe) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  TestStripe stripe(code, 512, 15);

  TempDir dir("unmatched");
  scrub::RepairJournal journal(dir.path());
  const auto seq = journal.begin("ghost-stripe", {0}, {0u});
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(journal.commit(*seq, {0}, {0u}));

  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{}, &journal);
  scrubber.add_target(stripe.target("s"));
  const scrub::ReplayReport replay = scrubber.replay();
  EXPECT_EQ(replay.unmatched, 1u);
  EXPECT_GE(replay.quarantined, 1u);
  EXPECT_EQ(replay.false_claims, 0u);
}

// ---- Scrub while serving (TSan soak) --------------------------------------

// A Scrubber patrols (and repairs) the very seam a DecodeServer is
// decoding from, concurrently, with repairs writing back through the
// same MemoryBlockStore the server's reads go through. Run under TSan
// this is the data-race soak for the whole scrub path; under any
// sanitizer it still asserts at-most-once repair and clean metrics.
TEST(Scrub, ScrubWhileServingSoak) {
  const RSCode code(6, 3, 8);
  const std::size_t kBytes = 512;
  const std::size_t total = code.total_blocks();
  Codec codec(code);
  TestStripe stripe(code, kBytes, 16);
  stripe.seam->set_fault(1, corrupt_spec());

  scrub_metrics().reset();
  scrub::ScrubOptions options;
  options.rate_bytes_per_sec = 64.0 * 1024 * 1024;  // paced but fast
  options.burst_bytes = 4 * kBytes;
  scrub::Scrubber scrubber(codec, options);
  scrubber.add_target(stripe.target("shared"));

  const FailureScenario sc({4});
  serve::ServerOptions sopts;
  sopts.dispatchers = 2;
  serve::DecodeServer server(codec, sopts);

  // Server side: decode the shared seam while the scrub runs. Block 4 is
  // erased per request; block 1's corruption is escalated by the digest
  // check until the scrubber heals it (1 erasure + 1 escalation < m=3).
  std::vector<std::unique_ptr<Stripe>> request_stripes;
  std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
  const std::size_t kRequests = 24;
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto rs = std::make_unique<Stripe>(code, kBytes);
    for (std::size_t b = 0; b < total; ++b) {
      std::memcpy(rs->block(b), stripe.snap.data() + b * kBytes, kBytes);
    }
    rs->erase(sc);
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = stripe.seam.get();
    req.blocks = rs->block_ptrs();
    req.block_bytes = kBytes;
    req.expected_crc = stripe.digests;
    futures.push_back(server.submit(std::move(req)));
    request_stripes.push_back(std::move(rs));
  }

  // Scrub side: two concurrent patrol threads over the same fleet.
  std::thread patrol_a([&] {
    for (int i = 0; i < 3; ++i) scrubber.run_cycle();
  });
  std::thread patrol_b([&] {
    for (int i = 0; i < 3; ++i) scrubber.run_cycle();
  });

  std::size_t served = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (!futures[i].has_value()) continue;
    const serve::OverlapResult out = futures[i]->get();
    EXPECT_TRUE(out.complete);
    EXPECT_TRUE(request_stripes[i]->equals(stripe.snap));
    ++served;
  }
  patrol_a.join();
  patrol_b.join();
  server.shutdown();

  EXPECT_GT(served, 0u);
  // The corruption was repaired exactly once, storage is healed, and
  // nothing on the scrub side failed.
  EXPECT_EQ(scrub_metrics().writebacks.value(), 1u);
  EXPECT_EQ(scrub_metrics().writeback_failures.value(), 0u);
  EXPECT_EQ(scrub_metrics().spot_check_failures.value(), 0u);
  EXPECT_TRUE(stripe.storage.equals(stripe.snap));
  EXPECT_TRUE(scrubber.sweep().stripes[0].latent.empty());
}

}  // namespace
}  // namespace ppm
