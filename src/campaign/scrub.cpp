// The scrub campaign and its crash drill: latent errors arrive on a seeded
// epoch schedule for a Scrubber to sweep, rank and repair; the drill
// crashes a repair between journal intent and commit.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "campaign/campaign.h"
#include "common/crc32.h"
#include "scrub/journal.h"

namespace ppm::campaign {

namespace {

/// `options.stripes` patrolled stripes filled from one seeded stream.
Fleet make_fleet(const ErasureCode& code, const ScrubOptions& options) {
  Rng fill(options.seed + 17);
  Fleet fleet(std::max<std::size_t>(1, options.stripes));
  for (auto& s : fleet) {
    s = std::make_unique<PatrolledStripe>(code, options.block_bytes, fill);
  }
  return fleet;
}

scrub::ScrubOptions scrubber_options(const ScrubOptions& options) {
  return {.sweep_read_retries = options.retries,
          .spot_check_every = options.spot_every,
          .rate_bytes_per_sec = options.rate_kbps * 1024.0,
          .repair = {.max_read_retries = options.retries}};
}

void add_targets(scrub::Scrubber& scrubber, Fleet& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    scrubber.add_target(fleet[i]->target("stripe-" + std::to_string(i)));
  }
}

}  // namespace

Verdict judge_detection(
    const Fleet& fleet,
    const std::set<std::pair<std::size_t, std::size_t>>& detected) {
  Verdict verdict;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const auto& arrival : fleet[i]->seam->arrivals()) {
      verdict.expect(detected.contains({i, arrival.block}),
                     "stripe " + std::to_string(i) + " block " +
                         std::to_string(arrival.block) + " (epoch " +
                         std::to_string(arrival.epoch) +
                         ") was never detected");
    }
  }
  return verdict;
}

Verdict judge_repair(Codec& codec, const Fleet& fleet, std::size_t epochs,
                     const scrub::SweepReport& final_sweep) {
  Verdict verdict;
  const ErasureCode& code = codec.code();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::vector<std::size_t> active;
    bool excused = false;  // exceeded capability: repair is best-effort
    for (std::size_t epoch = 1; epoch <= epochs && !excused; ++epoch) {
      for (const auto& arrival : fleet[i]->seam->arrivals()) {
        if (arrival.epoch == epoch) active.push_back(arrival.block);
      }
      const FailureScenario sc(active);
      if (sc.count() <= code.check_rows() && codec.plan_for(sc) != nullptr) {
        active.clear();
      } else if (!sc.empty()) {
        excused = true;
      }
    }
    if (excused) continue;
    const std::string stripe = "stripe " + std::to_string(i);
    verdict.expect(fleet[i]->storage.equals(fleet[i]->snap),
                   "within-capability " + stripe +
                       " not byte-identical after repair");
    verdict.expect(final_sweep.stripes[i].latent.empty(),
                   stripe + " has residual damage after the campaign");
  }
  return verdict;
}

Verdict judge_journal(const scrub::ReplayReport& replay) {
  Verdict verdict;
  verdict.expect(replay.false_claims == 0, "journal replay found false claims");
  return verdict;
}

ScrubReport run_scrub(const ErasureCode& code, const ScrubOptions& options) {
  Fleet fleet = make_fleet(code, options);
  const io::FaultInjectingSource::ArrivalOptions arrivals{
      .fail_permanent = options.permanent, .corrupt = options.corrupt,
      .epochs = std::max<std::size_t>(1, options.epochs)};
  Rng rng(options.seed);
  ScrubReport report;
  report.code = code.name();
  report.stripes = fleet.size();
  report.epochs = arrivals.epochs;
  for (const auto& s : fleet) {
    s->seam->roll_arrivals(arrivals, rng);
    report.arrivals += s->seam->arrivals().size();
  }
  // The campaign owns its journal directory: records from an earlier run
  // would be replayed against this run's fleet.
  std::optional<scrub::RepairJournal> journal;
  if (!options.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(options.journal_dir, ec);
    journal.emplace(options.journal_dir);
  }
  Codec codec(code);
  scrub::Scrubber scrubber(codec, scrubber_options(options),
                           journal.has_value() ? &*journal : nullptr);
  add_targets(scrubber, fleet);

  std::set<std::pair<std::size_t, std::size_t>> detected;
  for (std::size_t epoch = 1; epoch <= report.epochs; ++epoch) {
    for (const auto& s : fleet) report.landed += s->seam->advance_epoch();
    const scrub::CycleReport cycle = scrubber.run_cycle();
    for (const scrub::StripeDamage& damage : cycle.sweep.stripes) {
      for (const std::size_t b : damage.latent) {
        detected.insert({damage.stripe, b});
      }
    }
    report.repairs_attempted += cycle.repair.attempted;
    report.repairs_completed += cycle.repair.completed;
    report.repairs_partial += cycle.repair.partial;
    report.repairs_failed += cycle.repair.failed;
  }
  report.detected = detected.size();
  const Verdict missed = judge_detection(fleet, detected);
  report.missed = missed.failures.size();
  report.verdict.take(missed);
  report.verdict.take(
      judge_repair(codec, fleet, report.epochs, scrubber.sweep()));
  if (journal.has_value()) {
    const scrub::ReplayReport replay = scrubber.replay();
    report.false_claims = replay.false_claims;
    report.verified_commits = replay.verified_commits;
    report.verdict.take(judge_journal(replay));
  }
  report.rate_limit_waits = scrubber.bucket().waits();
  return report;
}

std::string ScrubReport::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"code\":\"%s\",\"stripes\":%zu,\"epochs\":%zu,\"arrivals\":%zu,"
      "\"detected\":%zu,\"missed\":%zu,\"repairs\":{\"attempted\":%zu,"
      "\"completed\":%zu,\"partial\":%zu,\"failed\":%zu},"
      "\"journal\":{\"verified_commits\":%zu,\"false_claims\":%zu},"
      "\"rate_limit_waits\":%zu,\"verify_failures\":%zu}",
      code.c_str(), stripes, epochs, arrivals, detected, missed,
      repairs_attempted, repairs_completed, repairs_partial, repairs_failed,
      verified_commits, false_claims, rate_limit_waits,
      verdict.failures.size());
  return buf;
}

Verdict judge_crash(const scrub::CycleReport& cycle) {
  Verdict verdict;
  verdict.expect(cycle.sweep.latent_total != 0,
                 "drill: corruption not detected");
  verdict.expect(cycle.repair.crashed_for_test,
                 "drill: crash hook never fired");
  verdict.expect(cycle.repair.completed == 0,
                 "drill: a repair committed before the crash");
  return verdict;
}

DrillReport run_drill(const ErasureCode& code, const ScrubOptions& options) {
  Fleet fleet = make_fleet(code, options);
  Codec codec(code);
  const scrub::ScrubOptions sopt = scrubber_options(options);
  DrillReport report;
  report.code = code.name();
  Verdict& verdict = report.verdict;
  // A fresh journal, so an earlier drill's records cannot pass for this
  // run's crash evidence.
  std::error_code ec;
  std::filesystem::remove_all(options.journal_dir, ec);

  // Plant one silent corruption, then crash between intent and commit.
  const std::size_t victim = 1 % code.total_blocks();
  PatrolledStripe& damaged = *fleet[0];
  damaged.seam->set_fault(victim, {.corrupt = true,
                                   .corrupt_offset = 3 % options.block_bytes,
                                   .corrupt_bytes = 8});
  {
    scrub::ScrubOptions crash_opt = sopt;
    crash_opt.crash_after_intents = 1;
    scrub::RepairJournal wal(options.journal_dir);
    scrub::Scrubber crasher(codec, crash_opt, &wal);
    add_targets(crasher, fleet);
    verdict.take(judge_crash(crasher.run_cycle()));
    // The crash left the damage in place: reads of it still corrupt.
    std::vector<std::uint8_t> bytes(options.block_bytes);
    verdict.expect(
        damaged.seam->read(victim, bytes.data(), bytes.size()) ==
                io::ReadStatus::kOk &&
            crc32(bytes.data(), bytes.size()) != damaged.digests[victim],
        "drill: the crash healed the damage");
  }
  // Restart: a fresh journal and scrubber over the same fleet. Replay must
  // surface the pending intent and exactly the planted damage, claim
  // nothing repaired, and leave that damage to the next cycle.
  scrub::RepairJournal wal(options.journal_dir);
  scrub::Scrubber scrubber(codec, sopt, &wal);
  add_targets(scrubber, fleet);
  const scrub::ReplayReport replay = scrubber.replay();
  verdict.expect(replay.pending_intents != 0, "drill: no pending intent found");
  verdict.expect(replay.false_claims == 0, "drill: false repaired claim");
  verdict.expect(replay.outstanding ==
                     std::vector<std::pair<std::size_t, std::size_t>>{
                         {0, victim}},
                 "drill: outstanding damage not surfaced");
  verdict.expect(scrubber.run_cycle().repair.completed != 0,
                 "drill: post-restart repair did not complete");
  verdict.expect(damaged.storage.equals(damaged.snap),
                 "drill: repaired stripe not byte-identical");
  const scrub::ReplayReport after = scrubber.replay();
  verdict.expect(after.false_claims == 0, "drill: committed claim re-verify");
  verdict.expect(after.outstanding.empty(), "drill: damage survived repair");
  report.pending_intents = replay.pending_intents;
  report.false_claims = replay.false_claims + after.false_claims;
  report.verified_commits = after.verified_commits;
  return report;
}

std::string DrillReport::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"code\":\"%s\",\"drill\":true,\"pending_intents\":%zu,"
                "\"false_claims\":%zu,\"verified_commits\":%zu,"
                "\"verify_failures\":%zu}",
                code.c_str(), pending_intents, false_claims, verified_commits,
                verdict.failures.size());
  return buf;
}

}  // namespace ppm::campaign
