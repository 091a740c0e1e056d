// Seeded fault campaigns and their judges (src/campaign/): the disk sweep,
// the reports `ppm_cli chaos|scrub` print pinned to their committed bytes,
// each judge failing a planted fault, and the serve campaign beside a
// background scrubber.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "codec/codec.h"
#include "codes/lrc_code.h"
#include "codes/rdp_code.h"
#include "codes/rs_code.h"
#include "scrub/journal.h"
#include "test_util.h"

namespace ppm {
namespace {

using campaign::Verdict;
using test::TempDir;

bool names(const Verdict& verdict, const std::string& what) {
  for (const std::string& failure : verdict.failures) {
    if (failure.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(Campaign, DiskSweepListsSinglesThenPairs) {
  const RDPCode code(5, 8);  // 6 disks of 4 rows
  const std::size_t n = code.disks();
  const auto disks_down = [&](std::vector<std::size_t> disks) {
    std::vector<std::size_t> faulty;
    for (const std::size_t d : disks) {
      for (std::size_t row = 0; row < code.rows(); ++row) {
        faulty.push_back(code.block_id(row, d));
      }
    }
    return FailureScenario(faulty);
  };
  std::vector<FailureScenario> expected;
  for (std::size_t d = 0; d < n; ++d) expected.push_back(disks_down({d}));
  for (std::size_t d0 = 0; d0 < n; ++d0) {
    for (std::size_t d1 = d0 + 1; d1 < n; ++d1) {
      expected.push_back(disks_down({d0, d1}));
    }
  }
  const auto sweep = campaign::disk_sweep(code, 2);
  EXPECT_EQ(sweep.size(), n + n * (n - 1) / 2);
  EXPECT_EQ(sweep, expected);
  EXPECT_EQ(campaign::disk_sweep(code, 1).size(), n);
  EXPECT_EQ(campaign::disk_sweep(code, 99).size(), (1u << n) - 1);
}

// The CI chaos job's parameters (`--sweep 2 --block 512 --seed 7 --rounds 2
// --permanent 5 --transient 10 --corrupt 5`) and its pinned expected.json.
campaign::ChaosOptions ci_chaos(const ErasureCode& code) {
  campaign::ChaosOptions options;
  options.scenarios = campaign::disk_sweep(code, 2);
  options.block_bytes = 512;
  options.rounds = 2;
  options.seed = 7;
  options.permanent = 0.05;
  options.transient = 0.10;
  options.corrupt = 0.05;
  return options;
}

TEST(Campaign, ChaosHistogramIsPinned) {
  const LRCCode lrc(12, 3, 2, 8);
  EXPECT_EQ(
      campaign::run_chaos(lrc, ci_chaos(lrc)).to_json(),
      R"j({"code":"LRC(12,3,2)(w=8)","runs":306,"outcomes":{"complete":280,)j"
      R"j("partial":9,"none":17},"verify_failures":0,"retries":1805,)j"
      R"j("escalations":348,"corruption_detected":732,"injected":)j"
      R"j({"read_failures":1421,"corruptions":732}})j");
  const RDPCode rdp(7, 8);
  EXPECT_EQ(
      campaign::run_chaos(rdp, ci_chaos(rdp)).to_json(),
      R"j({"code":"RDP(p=7)(w=8)","runs":72,"outcomes":{"complete":9,)j"
      R"j("partial":50,"none":13},"verify_failures":0,"retries":686,)j"
      R"j("escalations":107,"corruption_detected":264,"injected":)j"
      R"j({"read_failures":559,"corruptions":264}})j");
}

TEST(Campaign, ScrubReportIsPinned) {
  // The CI scrub job's `--code rs --block 1024 --seed 11 --stripes 6
  // --epochs 4 --permanent 6 --corrupt 8` campaign and its drill.
  const RSCode rs(10, 4, 8);
  campaign::ScrubOptions options;
  options.block_bytes = 1024;
  options.seed = 11;
  options.permanent = 0.06;
  options.corrupt = 0.08;
  EXPECT_EQ(
      campaign::run_scrub(rs, options).to_json(),
      R"j({"code":"RS(10,4)(w=8)","stripes":6,"epochs":4,"arrivals":10,)j"
      R"j("detected":10,"missed":0,"repairs":{"attempted":8,"completed":8,)j"
      R"j("partial":0,"failed":0},"journal":{"verified_commits":0,)j"
      R"j("false_claims":0},"rate_limit_waits":0,"verify_failures":0})j");

  const RSCode code(6, 3, 8);
  TempDir dir("campaign_drill");
  campaign::ScrubOptions drill;
  drill.seed = 9;
  drill.journal_dir = dir.path().string();
  EXPECT_EQ(campaign::run_drill(code, drill).to_json(),
            R"j({"code":"RS(6,3)(w=8)","drill":true,"pending_intents":1,)j"
            R"j("false_claims":0,"verified_commits":1,"verify_failures":0})j");
}

/// One chaos run of `sc` under `faults`, decoded by decode_resilient.
struct ChaosRun {
  ChaosRun(const campaign::ReferenceStripe& reference, Codec& codec,
           const FailureScenario& sc,
           const io::FaultInjectingSource::CampaignOptions& faults, Rng& rng)
      : inner(reference.ptrs.data(), reference.ptrs.size(), kBytes),
        source(inner),
        stripe(reference.erased_copy(sc)) {
    source.roll_campaign(
        faults, rng, std::vector<std::size_t>(sc.faulty().begin(),
                                              sc.faulty().end()));
    out = codec.decode_resilient(sc, source, stripe->block_ptrs(), kBytes,
                                 ResilienceOptions{}, reference.digests);
  }
  static constexpr std::size_t kBytes = 512;
  io::MemoryBlockSource inner;
  io::FaultInjectingSource source;
  std::unique_ptr<Stripe> stripe;
  ResilientResult out;
};

TEST(Campaign, ChaosJudgeFailsAPlantedWrongRecovery) {
  const LRCCode code(12, 3, 2, 8);
  Rng fill(3);
  const campaign::ReferenceStripe reference(code, ChaosRun::kBytes, fill);
  Codec codec(code);
  const auto judge = [&](const FailureScenario& sc, const ChaosRun& run) {
    return campaign::judge_chaos_run(codec, sc, run.source, 3, run.out,
                                     *run.stripe, reference.snap);
  };

  // A complete run: a flipped byte, then a block dropped from `recovered`.
  const FailureScenario sc({0, 5});
  Rng rng(1);
  ChaosRun clean(reference, codec, sc, {}, rng);
  ASSERT_TRUE(clean.out.complete);
  EXPECT_TRUE(judge(sc, clean).ok());
  clean.stripe->block(5)[17] ^= 0x01;
  EXPECT_TRUE(names(judge(sc, clean), "complete but not byte-identical"));
  clean.stripe->block(5)[17] ^= 0x01;
  clean.out.recovered.pop_back();
  EXPECT_TRUE(
      names(judge(sc, clean), "complete but recovered != final faulty set"));

  // A partial run under the CI fault mix: the same two plants.
  io::FaultInjectingSource::CampaignOptions faults;
  faults.fail_permanent = 0.05;
  faults.fail_transient = 0.10;
  faults.corrupt = 0.05;
  Rng chaos(7);
  for (const FailureScenario& disks : campaign::disk_sweep(code, 2)) {
    ChaosRun run(reference, codec, disks, faults, chaos);
    if (run.out.complete || run.out.recovered.empty()) continue;
    ASSERT_TRUE(judge(disks, run).ok());
    const std::size_t b = run.out.recovered.front();
    run.stripe->block(b)[0] ^= 0x80;
    EXPECT_TRUE(names(judge(disks, run),
                      "partially recovered blocks not byte-identical"));
    run.stripe->block(b)[0] ^= 0x80;
    run.out.recovered.erase(run.out.recovered.begin());
    EXPECT_TRUE(names(judge(disks, run),
                      "recovered set != independent groups with intact "
                      "inputs"));
    return;
  }
  FAIL() << "the sweep produced no partial run";
}

TEST(Campaign, ChaosJudgeFailsAnIncompleteRunWithinCapability) {
  const RSCode code(6, 3, 8);
  Rng fill(4);
  const campaign::ReferenceStripe reference(code, ChaosRun::kBytes, fill);
  Codec codec(code);
  const FailureScenario sc({0, 4});
  Rng rng(1);
  ChaosRun run(reference, codec, sc, {}, rng);
  ASSERT_TRUE(run.out.complete);
  run.out.complete = false;  // the decoder gave up on a decodable set
  const Verdict verdict = campaign::judge_chaos_run(
      codec, sc, run.source, 3, run.out, *run.stripe, reference.snap);
  EXPECT_TRUE(
      names(verdict, "within-capability scenario did not recover completely"));
}

TEST(Campaign, ScrubJudgeFailsAMissedArrival) {
  const RSCode code(6, 3, 8);
  Rng fill(5);
  campaign::Fleet fleet;
  fleet.push_back(std::make_unique<campaign::PatrolledStripe>(code, 256, fill));
  io::FaultInjectingSource::ArrivalOptions arrivals;
  arrivals.fail_permanent = 0.3;
  arrivals.corrupt = 0.3;
  arrivals.epochs = 2;
  Rng rng(5);
  fleet[0]->seam->roll_arrivals(arrivals, rng);
  const auto& schedule = fleet[0]->seam->arrivals();
  ASSERT_GE(schedule.size(), 2u);

  std::set<std::pair<std::size_t, std::size_t>> detected;
  for (const auto& arrival : schedule) detected.insert({0, arrival.block});
  EXPECT_TRUE(campaign::judge_detection(fleet, detected).ok());
  detected.erase({0, schedule.back().block});
  const Verdict verdict = campaign::judge_detection(fleet, detected);
  ASSERT_EQ(verdict.failures.size(), 1u);
  EXPECT_TRUE(names(verdict, "block " + std::to_string(schedule.back().block) +
                                 " (epoch "));
}

TEST(Campaign, JournalJudgeFailsAFalseCommittedClaim) {
  const RSCode code(6, 3, 8);
  Rng fill(6);
  campaign::PatrolledStripe stripe(code, 512, fill);
  Codec codec(code);
  TempDir dir("campaign_false_claim");
  scrub::RepairJournal journal(dir.path());
  scrub::Scrubber scrubber(codec, scrub::ScrubOptions{}, &journal);
  scrubber.add_target(stripe.target("s"));
  EXPECT_TRUE(campaign::judge_journal(scrubber.replay()).ok());

  // A committed claim that block 3 was repaired, over garbage.
  const auto seq = journal.begin("s", {3}, {stripe.digests[3]});
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(journal.commit(*seq, {3}, {stripe.digests[3]}));
  std::memset(stripe.storage.block(3), 0x5A, 512);
  EXPECT_TRUE(names(campaign::judge_journal(scrubber.replay()),
                    "journal replay found false claims"));
}

TEST(Campaign, DrillJudgeFailsACrashHookThatNeverFires) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  const auto crash_cycle = [&](std::size_t crash_after_intents) {
    Rng fill(8);
    campaign::PatrolledStripe stripe(code, 512, fill);
    io::FaultSpec rot;
    rot.corrupt = true;
    rot.corrupt_bytes = 8;
    stripe.seam->set_fault(1, rot);
    TempDir dir("campaign_crash");
    scrub::RepairJournal journal(dir.path());
    scrub::ScrubOptions options;
    options.crash_after_intents = crash_after_intents;
    scrub::Scrubber scrubber(codec, options, &journal);
    scrubber.add_target(stripe.target("s"));
    return campaign::judge_crash(scrubber.run_cycle());
  };
  EXPECT_TRUE(crash_cycle(1).ok());
  const Verdict unfired = crash_cycle(0);  // no hook: the repair commits
  EXPECT_TRUE(names(unfired, "drill: crash hook never fired"));
  EXPECT_TRUE(names(unfired, "drill: a repair committed before the crash"));
}

TEST(Campaign, ServeCampaignHoldsBesideABackgroundScrubber) {
  const RSCode code(6, 3, 8);
  campaign::ServeOptions options;
  options.scenarios = campaign::disk_sweep(code, 1);
  options.block_bytes = 512;
  options.rounds = 1;
  options.requests = 2;
  options.seed = 3;
  options.delay = std::chrono::microseconds{300};
  options.scrub_rate_kbps = 4096;
  campaign::ServeReport report;
  campaign::run_serve(code, options, report);
  const std::size_t requests = options.scenarios.size() * options.requests;
  for (const campaign::PhaseReport* phase :
       {&report.clean, &report.hedged, &report.serial}) {
    EXPECT_EQ(phase->verdict.failures, std::vector<std::string>{});
    EXPECT_EQ(phase->requests, requests);
    EXPECT_EQ(phase->rejected, 0u);
  }
  EXPECT_TRUE(report.ran_serial);
  EXPECT_EQ(report.verify_failures(), 0u);
  const std::string json = report.to_json();
  EXPECT_LT(json.find("\"clean\":"), json.find("\"hedged\":"));
  EXPECT_LT(json.find("\"hedged\":"), json.find("\"serial\":"));
  EXPECT_NE(json.find(",\"verify_failures\":0}"), std::string::npos);
}

}  // namespace
}  // namespace ppm
