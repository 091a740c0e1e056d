// Seeded fault campaigns and their judges (ppm::campaign).
//
// A campaign rolls a fault schedule from a seed, runs a decode path
// against it, and judges each outcome by what the schedule alone implies,
// never by what the decoder says about itself. chaos runs decode_resilient
// under read faults on top of whole-disk failures (docs/ROBUSTNESS.md §5);
// serve runs the DecodeServer and the serial ladder on the same straggler
// schedules (docs/SERVING.md §4); scrub lets latent errors arrive on an
// epoch schedule for a Scrubber to find and repair, and its drill crashes a
// repair between journal intent and commit (docs/ROBUSTNESS.md §7).
// Every judge returns a Verdict; every report prints as one JSON line.
// Deterministic from the seed, except serve's latencies and hedges.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "codec/resilient.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "scrub/scrub.h"
#include "workload/stripe.h"

namespace ppm::campaign {

/// One line per failed expectation; ppm_cli prints each on stderr as
/// `VERIFY FAIL: <line>`.
struct Verdict {
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  void fail(std::string what) { failures.push_back(std::move(what)); }
  void expect(bool held, std::string what) {
    if (!held) fail(std::move(what));
  }
  /// Appends `other`'s failures, each prefixed with `context`.
  void take(const Verdict& other, const std::string& context = {});
};

/// Every combination of 1..max_disks whole-disk failures: all single
/// disks, then all pairs, and so on, each size in lexicographic order.
std::vector<FailureScenario> disk_sweep(const ErasureCode& code,
                                        std::size_t max_disks);

/// "1,5,9": the faulty blocks.
std::string scenario_ids(const FailureScenario& scenario);

/// Pointers to each of a snapshot's `blocks` blocks of `bytes` bytes.
std::vector<const std::uint8_t*> snapshot_ptrs(
    const std::vector<std::uint8_t>& snap, std::size_t blocks,
    std::size_t bytes);

/// The CRC32 of each of a snapshot's `blocks` blocks of `bytes` bytes.
std::vector<std::uint32_t> digests_of(const std::vector<std::uint8_t>& snap,
                                      std::size_t blocks, std::size_t bytes);

/// A seeded, encoded stripe and what a campaign judges against.
struct ReferenceStripe {
  /// Fills the data blocks from `fill` and encodes the parities.
  ReferenceStripe(const ErasureCode& code, std::size_t block_bytes,
                  Rng& fill);

  Stripe storage;                         ///< the encoded stripe
  std::vector<std::uint8_t> snap;         ///< storage as encoded
  std::vector<const std::uint8_t*> ptrs;  ///< each block of snap
  std::vector<std::uint32_t> digests;     ///< CRC32 of each block

  /// A copy of the snapshot with `erased`'s blocks poisoned.
  std::unique_ptr<Stripe> erased_copy(const FailureScenario& erased) const;
};

/// A reference stripe whose storage sits behind a read/write fault seam.
struct PatrolledStripe : ReferenceStripe {
  PatrolledStripe(const ErasureCode& code, std::size_t block_bytes,
                  Rng& fill);

  Stripe scratch;  ///< where a Scrubber decodes repairs
  std::unique_ptr<io::MemoryBlockStore> store;
  std::unique_ptr<io::FaultInjectingSource> seam;

  scrub::ScrubTarget target(std::string stripe_id);
};

using Fleet = std::vector<std::unique_ptr<PatrolledStripe>>;

// ---- chaos ------------------------------------------------------------------

struct ChaosOptions {
  std::vector<FailureScenario> scenarios;
  std::size_t block_bytes = 4096;
  std::size_t rounds = 3;   ///< fault schedules rolled per scenario
  std::size_t retries = 3;  ///< ResilienceOptions::max_read_retries
  std::uint64_t seed = 1;
  /// Per-survivor probabilities of roll_campaign's fault classes.
  double permanent = 0.08, transient = 0.12, corrupt = 0.08;
};

struct ChaosReport {
  std::string code;
  std::size_t runs = 0, complete = 0, partial = 0;
  std::size_t none = 0;  ///< incomplete with nothing recovered
  std::size_t retries = 0, escalations = 0, corruption_detected = 0;
  std::size_t read_failures_injected = 0, corruptions_injected = 0;
  Verdict verdict;

  std::string to_json() const;
};

/// Per scenario and round: roll a fault schedule, run decode_resilient
/// with digests, and judge the run.
ChaosReport run_chaos(const ErasureCode& code, const ChaosOptions& options);

/// What partial recovery must achieve on `final_scenario`, recomputed from
/// the O1 partition and SubPlan::make alone: every group whose system
/// solves and whose survivors `source` lets through within `retries`, and
/// H_rest only once every group did. Sorted.
std::vector<std::size_t> mirror_partial_expectation(
    const Matrix& h, const FailureScenario& final_scenario,
    const io::FaultInjectingSource& source, std::size_t retries);

/// Judges `out`, decode_resilient's report for `scenario` over `source`,
/// and `decoded`, the stripe it decoded into:
///  * if the scenario plus every survivor the schedule makes permanently
///    unreadable within `retries` is decodable, the run is complete;
///  * a complete run recovered exactly its final faulty set, and
///    `decoded` equals `snap`;
///  * an incomplete run recovered exactly mirror_partial_expectation's
///    blocks, each equal to `snap`'s.
Verdict judge_chaos_run(Codec& codec, const FailureScenario& scenario,
                        const io::FaultInjectingSource& source,
                        std::size_t retries, const ResilientResult& out,
                        const Stripe& decoded,
                        const std::vector<std::uint8_t>& snap);

// ---- serve ------------------------------------------------------------------

struct ServeOptions {
  std::vector<FailureScenario> scenarios;
  std::size_t block_bytes = 4096;
  std::size_t rounds = 2;
  std::size_t requests = 4;  ///< concurrent requests per scenario and round
  std::size_t retries = 3;
  std::uint64_t seed = 1;
  double straggle = 0.25;  ///< per-survivor transient straggler probability
  std::chrono::microseconds delay{3000};  ///< a straggler's first read
  bool serial = true;  ///< also decode_resilient the stragglers' schedules
  double scrub_rate_kbps = 0;  ///< > 0: a paced Scrubber runs alongside
};

struct PhaseReport {
  LatencyHistogram latency;  ///< per-request decode wall time
  std::size_t requests = 0, rejected = 0, fallbacks = 0;
  std::size_t overlapped = 0;  ///< solves started before the last read
  std::size_t hedges_launched = 0, hedges_won = 0, hedges_wasted = 0;
  Verdict verdict;  ///< every request complete and byte-identical
};

struct ServeReport {
  std::string code;
  PhaseReport clean;   ///< served, no faults
  PhaseReport hedged;  ///< served, seeded transient stragglers
  PhaseReport serial;  ///< decode_resilient on the hedged phase's schedules
  bool ran_serial = false;
  std::size_t scrub_cycles = 0;

  std::size_t verify_failures() const;
  std::string to_json() const;
};

/// Runs the serve campaign into `report`. Each served phase has its own
/// DecodeServer: 64 queued requests, 2 dispatchers, 32 reactor threads
/// per dispatcher.
void run_serve(const ErasureCode& code, const ServeOptions& options,
               ServeReport& report);

// ---- scrub ------------------------------------------------------------------

struct ScrubOptions {
  std::size_t block_bytes = 4096;
  std::size_t stripes = 6;
  std::size_t epochs = 4;
  std::size_t retries = 3;
  std::uint64_t seed = 1;
  /// Per-block probabilities of roll_arrivals' latent-error classes.
  double permanent = 0.06, corrupt = 0.08;
  std::size_t spot_every = 0;  ///< scrub::ScrubOptions::spot_check_every
  double rate_kbps = 0;        ///< scrub I/O budget; 0 is unpaced
  /// Journal directory, emptied first; none when empty. The drill needs it.
  std::string journal_dir;
};

struct ScrubReport {
  std::string code;
  std::size_t stripes = 0, epochs = 0, arrivals = 0, landed = 0;
  std::size_t detected = 0, missed = 0;
  std::size_t repairs_attempted = 0, repairs_completed = 0;
  std::size_t repairs_partial = 0, repairs_failed = 0;
  std::size_t verified_commits = 0, false_claims = 0, rate_limit_waits = 0;
  Verdict verdict;

  std::string to_json() const;
};

/// Rolls each stripe's arrivals from one seeded stream, runs a scrub cycle
/// per epoch and a final sweep, and judges the run.
ScrubReport run_scrub(const ErasureCode& code, const ScrubOptions& options);

/// Every scheduled arrival is in `detected`, as (stripe, block).
Verdict judge_detection(
    const Fleet& fleet,
    const std::set<std::pair<std::size_t, std::size_t>>& detected);

/// Replays each stripe's arrivals through the capability model: damage
/// accumulates per epoch and clears whenever it is decodable. A stripe
/// that never exceeds capability equals its snapshot and shows no damage
/// in `final_sweep`.
Verdict judge_repair(Codec& codec, const Fleet& fleet, std::size_t epochs,
                     const scrub::SweepReport& final_sweep);

/// Every committed journal claim re-verified.
Verdict judge_journal(const scrub::ReplayReport& replay);

struct DrillReport {
  std::string code;
  std::size_t pending_intents = 0, false_claims = 0, verified_commits = 0;
  Verdict verdict;

  std::string to_json() const;
};

/// The crash drill: plant one silent corruption on stripe 0, crash the
/// repairer between journal intent and commit, restart with a fresh
/// journal and scrubber, and require replay to surface exactly that
/// damage with no false claim before the next cycle heals it.
DrillReport run_drill(const ErasureCode& code, const ScrubOptions& options);

/// The crashed cycle found damage, crashed and committed nothing.
Verdict judge_crash(const scrub::CycleReport& cycle);

}  // namespace ppm::campaign
