#include "decode/ppm_decoder.h"

#include <algorithm>
#include <thread>

#include "analyze_hazard/hazard.h"
#include "common/cpu.h"
#include "common/timer.h"
#include "decode/plan.h"

#ifdef PPM_VERIFY_PLANS
#include <stdexcept>

#include "verify_plan/violation.h"
#endif

namespace ppm {

std::optional<PpmResult> PpmDecoder::decode(const FailureScenario& scenario,
                                            std::uint8_t* const* blocks,
                                            std::size_t block_bytes) const {
  // Refused before planning: a group task that threw on a split symbol
  // would escape its lane and end the process.
  if (block_bytes % code_->field().symbol_bytes() != 0) return std::nullopt;
  PpmResult result;
  if (scenario.empty()) return result;

  // Steps 2-4 planning: log table, partition, the groups' matrix-first
  // plans and H_rest with the sequence rest_policy picks.
  const Timer total;
  const auto plan = CachedPlan::partitioned(code_->parity_check(), scenario,
                                            options_.rest_policy);
  if (!plan.has_value()) return std::nullopt;
  const std::span<const SubPlan> group_plans = plan->groups();
  const std::optional<SubPlan>& rest_plan = plan->rest();
  result.p = plan->p();
  if (rest_plan.has_value()) {
    result.dependent_blocks = rest_plan->unknowns().size();
    result.rest_sequence = rest_plan->sequence();
  }
  result.plan_seconds = total.seconds();

#ifdef PPM_VERIFY_PLANS
  // Statically prove the group fan-out race-free before spawning it: the
  // groups run concurrently below, and a write/write or read/write
  // overlap between them would corrupt blocks under *some* interleaving
  // even if this run happens not to hit it.
  {
    const auto analysis = hazard::analyze(hazard::graph_of_subplans(
        group_plans, rest_plan.has_value() ? &*rest_plan : nullptr));
    if (!analysis.ok()) {
      throw std::logic_error("PPM_VERIFY_PLANS: concurrency hazard: " +
                             planverify::to_json(analysis.violations));
    }
  }
#endif

  // Effective thread count: the paper's T <= min(4, cores), further capped
  // at the group count — spawning a lane with nothing placed on it would
  // pay start/join cost for an idle worker.
  unsigned t = options_.threads != 0
                   ? options_.threads
                   : std::min(4u, hardware_threads());
  t = std::min<unsigned>(std::max(1u, t),
                         static_cast<unsigned>(std::max<std::size_t>(
                             1, group_plans.size())));

  // Hazard-DAG-guided placement: the groups are the DAG's root units and
  // mutually unordered, so any lane assignment is sound; LPT over the
  // analyzer's work estimates (SubPlan cost = the unit weight
  // graph_of_subplans carries) puts the heaviest group first on the
  // least-loaded lane, replacing Algorithm 1's static i mod T.
  const bool serial_groups = t <= 1 || group_plans.size() <= 1;
  std::vector<std::size_t> group_work(group_plans.size());
  for (std::size_t i = 0; i < group_plans.size(); ++i) {
    group_work[i] = group_plans[i].cost();
  }
  const hazard::Placement placement =
      hazard::place_lpt(group_work, serial_groups ? 1 : t);
  result.lane_of = placement.lane_of;
  unsigned lanes_used = 0;
  for (const auto& lane : placement.lane_units) {
    if (!lane.empty()) ++lanes_used;
  }
  result.threads_used = std::max(1u, lanes_used);

  // Step 3 execution: decode the independent sub-matrices in parallel,
  // one worker per populated lane.
  const Timer par_phase;
  std::vector<DecodeStats> task_stats(group_plans.size());
  const auto run_task = [&](std::size_t i) {
    group_plans[i].execute(blocks, block_bytes, &task_stats[i]);
  };
  const auto run_lane = [&](const std::vector<std::size_t>& units) {
    for (const std::size_t i : units) run_task(i);
  };
  if (serial_groups) {
    for (std::size_t i = 0; i < group_plans.size(); ++i) run_task(i);
  } else {
    // Paper-faithful ephemeral threads, one per populated lane.
    std::vector<std::jthread> workers;
    workers.reserve(lanes_used);
    for (const auto& lane : placement.lane_units) {
      if (lane.empty()) continue;
      workers.emplace_back([&run_lane, &lane] { run_lane(lane); });
    }
    workers.clear();  // join
  }
  result.parallel_seconds = par_phase.seconds();
  for (const DecodeStats& st : task_stats) {
    result.stats.mult_xors += st.mult_xors;
    result.stats.bytes_touched += st.bytes_touched;
    result.stats.blocks_read += st.blocks_read;
  }

  // Step 4 execution: the remaining sub-matrix, now that the independent
  // faulty blocks hold recovered data.
  const Timer rest_phase;
  if (rest_plan.has_value()) {
    rest_plan->execute(blocks, block_bytes, &result.stats);
  }
  result.rest_seconds = rest_phase.seconds();
  result.seconds = total.seconds();
  return result;
}

std::optional<PpmResult> PpmDecoder::encode(std::uint8_t* const* blocks,
                                            std::size_t block_bytes) const {
  return decode(FailureScenario::encoding_of(*code_), blocks, block_bytes);
}

}  // namespace ppm
