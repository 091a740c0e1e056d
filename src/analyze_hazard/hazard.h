// Static concurrency-hazard analysis of parallel decode strategies
// (ppm::hazard).
//
// The plan verifier (verify_plan/) proves a decode plan *serially* sound:
// executed one sub-plan after another, the bytes come out right. This
// pass proves the library's parallel execution strategies sound for
// **every** interleaving, which no sanitizer run can (TSan only observes
// the interleavings that happen to execute). Each strategy is lowered to
// the same intermediate form — a dependency DAG of *execution units*,
// each with a set of read and write intervals over (block, byte range) —
// and the DAG is checked for:
//
//  * disjoint concurrent writes — two units with no ordering path between
//    them must not write overlapping bytes (`concurrent_write_overlap`);
//  * no unsynchronized read/write overlap — an unordered unit pair must
//    not read bytes the other writes (`concurrent_read_write_overlap`);
//  * acyclic dependencies — the ordering edges must admit a schedule at
//    all (`dependency_cycle`);
//  * slice geometry — region-split slices must be symbol-aligned and tile
//    the block range exactly once (`slice_misalignment`);
//  * ordered incremental reads — an XOR op reading another target
//    (`from_output`) must have that target finalized before its own unit
//    starts, or a unit-concurrent executor could observe a partial value
//    (`unordered_from_output_use`).
//
// Three lowerings cover every parallel region the decoders run:
// PpmDecoder's Algorithm-1 group lanes (graph_of_subplans), the region
// slices of CachedPlan::execute_sliced — the one fan-out under Codec's
// decode, encode and batch decode (graph_of_slices) — and the per-target
// units of an XOR schedule (graph_of_schedule).
//
// From the same DAG the analysis derives the observability numbers that
// bound achievable speedup: total work, critical-path length (both in
// mult_XOR units), per-level parallel width, and the implied max-speedup
// bound = work / critical path (Brent's theorem ceiling). `ppm_cli
// analyze` exports them; docs/STATIC_ANALYSIS.md documents the model.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "decode/plan.h"
#include "decode/xor_schedule.h"
#include "matrix/matrix.h"
#include "verify_plan/violation.h"

namespace ppm {
namespace hazard {

/// End-of-block sentinel: an access interval reaching kRangeEnd covers
/// the block's whole tail regardless of the (plan-time unknown) region
/// size.
inline constexpr std::size_t kRangeEnd = static_cast<std::size_t>(-1);

/// Half-open byte interval [begin, end) of one block's region.
struct Access {
  std::size_t block = 0;
  std::size_t begin = 0;
  std::size_t end = kRangeEnd;

  bool overlaps(const Access& other) const {
    return block == other.block && begin < other.end && other.begin < end;
  }
};

/// One schedulable unit of work: a SubPlan's mult_XOR sequence, one
/// region slice, or one XOR-schedule target's op subsequence.
struct Unit {
  std::string label;
  std::vector<Access> reads;
  std::vector<Access> writes;
  std::size_t work = 0;  ///< mult_XOR weight for the critical path
};

/// Execution units plus happens-before edges (from must complete before
/// to starts). Units with no directed path between them may run
/// concurrently — that is exactly what the hazard checks quantify over.
struct HazardGraph {
  std::vector<Unit> units;
  std::vector<std::pair<std::size_t, std::size_t>> edges;  ///< from -> to
};

/// The analysis verdict: violations (empty = provably race-free for all
/// interleavings) plus the DAG's parallelism profile.
struct Analysis {
  std::vector<planverify::Violation> violations;

  std::size_t total_work = 0;     ///< Σ unit work (mult_XOR units)
  std::size_t critical_path = 0;  ///< heaviest dependency chain (mult_XORs)
  /// Units per DAG level (level = longest edge-path depth from a root);
  /// level_width.size() is the chain length in units.
  std::vector<std::size_t> level_width;
  std::size_t max_width = 0;  ///< peak concurrently-runnable units

  /// Upper bound on parallel speedup: work / critical path. No executor,
  /// on any number of cores, can beat it for this plan.
  double speedup_bound() const {
    return critical_path == 0 ? 1.0
                              : static_cast<double>(total_work) /
                                    static_cast<double>(critical_path);
  }

  bool ok() const { return violations.empty(); }
};

/// Core pass: cycle check, pairwise concurrent-access checks, critical
/// path and width profile of an explicit graph.
Analysis analyze(const HazardGraph& graph);

/// A lane assignment of mutually independent execution units: which lane
/// each unit runs on, each lane's dispatch order and total work, and the
/// resulting makespan (all work in the same mult_XOR units the DAG
/// carries). Produced by the placers below. Only PpmDecoder's Algorithm-1
/// group lanes run an LPT placement; Codec slices every stripe instead
/// (CachedPlan::execute_sliced). `ppm_cli analyze` reports both placers'
/// makespans.
struct Placement {
  unsigned lanes = 0;
  std::vector<unsigned> lane_of;  ///< unit index -> lane index
  /// Units per lane in dispatch order (LPT: heaviest first within a lane).
  std::vector<std::vector<std::size_t>> lane_units;
  std::vector<std::size_t> lane_work;  ///< Σ unit work per lane
  std::size_t makespan = 0;            ///< max over lane_work
};

/// LPT (longest-processing-time-first) list scheduling: units sorted by
/// descending work, each placed on the currently least-loaded lane.
/// Deterministic — ties broken by lower unit index, then lower lane
/// index — and within Graham's bound of optimal:
/// makespan <= Σwork/lanes + max(work). `lanes` of 0 is treated as 1 and
/// is never raised above the unit count (no empty lanes are created when
/// units < lanes).
Placement place_lpt(std::span<const std::size_t> work, unsigned lanes);

/// The paper's Algorithm-1 static assignment (unit i -> lane i mod
/// lanes), kept as the baseline the placer is measured against. Same
/// lane-count clamping as place_lpt.
Placement place_round_robin(std::span<const std::size_t> work,
                            unsigned lanes);

/// Lower PPM's two-phase execution to a graph: every group sub-plan is a
/// root unit (mutually unordered — the TaskGroup fan-out), and `rest`,
/// when present, is a unit ordered after every group. Reads/writes are
/// whole-block intervals.
HazardGraph graph_of_subplans(std::span<const SubPlan> groups,
                              const SubPlan* rest);

/// graph_of_subplans applied to a cached codec plan.
HazardGraph graph_of_plan(const CachedPlan& plan);

/// Lower a region-split execution: one unit per slice, all mutually
/// unordered, each reading the plan's survivors and writing its unknowns
/// restricted to the slice's byte range.
HazardGraph graph_of_slices(const SubPlan& plan,
                            std::span<const SliceRange> slices);

/// Lower an XOR schedule over a `rows`×`cols` binary system: one unit per
/// target row (its op subsequence), with a happens-before edge from the
/// producing target to the consumer for every from_output read. Survivor
/// columns and target rows live in disjoint block namespaces (targets are
/// offset by `cols`).
HazardGraph graph_of_schedule(const XorSchedule& schedule, std::size_t rows,
                              std::size_t cols);

/// Analyze a full cached plan (graph_of_plan + analyze).
Analysis analyze_plan(const CachedPlan& plan);

/// Per-unit survivor-input sets of a plan's two-phase execution — the
/// readiness metadata the serving layer (serve/) overlaps fetch and
/// compute with. Derived from the same DAG lowering the hazard checks
/// quantify over: a unit's inputs are the blocks it reads that no unit
/// writes (i.e. true source blocks — blocks another unit recovers are
/// satisfied by compute ordering, not by fetch). Group i may start as
/// soon as group_inputs[i] have all arrived; the rest unit additionally
/// waits for every group (its DAG edges), so rest_inputs lists only the
/// source blocks it reads itself. All lists are sorted and duplicate-free.
struct PlanReadiness {
  std::vector<std::vector<std::size_t>> group_inputs;  ///< per O1 group
  std::vector<std::size_t> rest_inputs;  ///< empty when the plan has no rest
  bool has_rest = false;
  std::vector<std::size_t> all_inputs;   ///< union — every block to fetch
};

/// Extract the readiness sets of a cached plan (graph_of_plan lowering).
PlanReadiness plan_readiness(const CachedPlan& plan);

/// Analyze a slice fan-out: graph_of_slices + analyze, plus the geometric
/// slice checks — every boundary a multiple of `symbol_bytes` and the
/// slices an exact, gapless, in-order tiling of [0, block_bytes) rounded
/// down to the symbol floor (`slice_misalignment`).
Analysis analyze_slices(const SubPlan& plan,
                        std::span<const SliceRange> slices,
                        std::size_t block_bytes, unsigned symbol_bytes);

/// Analyze an XOR schedule as a parallel program over register units
/// (target rows plus the optimizer's temporaries): graph_of_schedule +
/// analyze, plus the finalized-before-start check on
/// every from_output read (`unordered_from_output_use`) — stricter than
/// the serial read-before-final rule of verify_xor_schedule, because a
/// unit-concurrent executor may start a target as soon as its
/// dependencies finish. Ops whose target (or from_output source) falls
/// outside the register file are a malformed schedule and are reported as
/// `xor_index_out_of_bounds` rather than silently dropped from the DAG,
/// and a register whose op span contains foreign ops (an interleaved
/// post-optimizer schedule) is reported as `xor_target_span_fragmented`
/// instead of being certified with a silently wrong span.
Analysis analyze_schedule(const XorSchedule& schedule, const Matrix& g);

}  // namespace hazard
}  // namespace ppm
