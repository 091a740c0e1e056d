#include "analyze_hazard/hazard.h"

#include <algorithm>
#include <utility>

namespace ppm::hazard {

namespace {

using planverify::kNoIndex;
using planverify::Violation;
using planverify::ViolationKind;

std::string size_str(std::size_t v) { return std::to_string(v); }

std::string range_str(const Access& a) {
  std::string out = "block " + size_str(a.block);
  if (a.begin != 0 || a.end != kRangeEnd) {
    out += " bytes [" + size_str(a.begin) + "," +
           (a.end == kRangeEnd ? std::string("end") : size_str(a.end)) + ")";
  }
  return out;
}

void report(std::vector<Violation>& out, ViolationKind kind, std::size_t unit,
            std::size_t op, std::string message) {
  out.push_back(Violation{kind, unit, op, std::move(message)});
}

/// First overlapping pair between two access sets, if any.
const Access* find_overlap(std::span<const Access> a,
                           std::span<const Access> b) {
  for (const Access& x : a) {
    for (const Access& y : b) {
      if (x.overlaps(y)) return &x;
    }
  }
  return nullptr;
}

}  // namespace

Analysis analyze(const HazardGraph& graph) {
  Analysis result;
  const std::size_t n = graph.units.size();
  for (const Unit& u : graph.units) result.total_work += u.work;

  // Adjacency + indegrees; out-of-range edge endpoints would be a caller
  // bug, so they are clamped out rather than crashing the analyzer.
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<std::size_t> indegree(n, 0);
  for (const auto& [from, to] : graph.edges) {
    if (from >= n || to >= n) continue;
    succ[from].push_back(to);
    ++indegree[to];
  }

  // Kahn topological sort: units never popped are on (or downstream of) a
  // cycle — no schedule exists at all.
  std::vector<std::size_t> topo;
  topo.reserve(n);
  {
    std::vector<std::size_t> ready;
    std::vector<std::size_t> degree = indegree;
    for (std::size_t u = 0; u < n; ++u) {
      if (degree[u] == 0) ready.push_back(u);
    }
    while (!ready.empty()) {
      const std::size_t u = ready.back();
      ready.pop_back();
      topo.push_back(u);
      for (const std::size_t v : succ[u]) {
        if (--degree[v] == 0) ready.push_back(v);
      }
    }
  }
  const bool acyclic = topo.size() == n;
  if (!acyclic) {
    std::string members;
    std::vector<char> sorted(n, 0);
    for (const std::size_t u : topo) sorted[u] = 1;
    for (std::size_t u = 0; u < n; ++u) {
      if (sorted[u] == 0) {
        members += (members.empty() ? "" : ", ") + graph.units[u].label;
      }
    }
    report(result.violations, ViolationKind::kDependencyCycle, kNoIndex,
           kNoIndex,
           "dependency edges admit no schedule; units on or behind the "
           "cycle: " + members);
  }

  // Reachability closure over units (bitset per unit, in reverse topo
  // order), so ordered(u, v) = "a directed path exists". On a cyclic graph
  // the closure is computed for the sorted prefix only; units stuck on the
  // cycle conservatively reach nothing, which can only add findings.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::vector<std::uint64_t>> reach(
      n, std::vector<std::uint64_t>(words, 0));
  for (std::size_t i = topo.size(); i-- > 0;) {
    const std::size_t u = topo[i];
    for (const std::size_t v : succ[u]) {
      reach[u][v / 64] |= std::uint64_t{1} << (v % 64);
      for (std::size_t w = 0; w < words; ++w) reach[u][w] |= reach[v][w];
    }
  }
  const auto ordered = [&](std::size_t u, std::size_t v) {
    return ((reach[u][v / 64] >> (v % 64)) & 1) != 0 ||
           ((reach[v][u / 64] >> (u % 64)) & 1) != 0;
  };

  // Pairwise hazard checks over every unordered (= potentially concurrent)
  // pair: writes must be disjoint and neither side may read what the
  // other writes.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (ordered(u, v)) continue;
      const Unit& a = graph.units[u];
      const Unit& b = graph.units[v];
      if (const Access* w = find_overlap(a.writes, b.writes)) {
        report(result.violations, ViolationKind::kConcurrentWriteOverlap, u,
               kNoIndex,
               a.label + " and " + b.label + " concurrently write " +
                   range_str(*w));
      }
      if (const Access* r = find_overlap(a.reads, b.writes)) {
        report(result.violations,
               ViolationKind::kConcurrentReadWriteOverlap, u, kNoIndex,
               a.label + " reads " + range_str(*r) + " which " + b.label +
                   " writes concurrently");
      }
      if (const Access* r = find_overlap(b.reads, a.writes)) {
        report(result.violations,
               ViolationKind::kConcurrentReadWriteOverlap, v, kNoIndex,
               b.label + " reads " + range_str(*r) + " which " + a.label +
                   " writes concurrently");
      }
    }
  }

  // Parallelism profile. On a cyclic graph there is no critical path; the
  // serial total is the only sound bound.
  if (!acyclic) {
    result.critical_path = result.total_work;
    return result;
  }
  std::vector<std::size_t> dist(n, 0);   // heaviest chain ending at u
  std::vector<std::size_t> level(n, 0);  // longest edge-path depth
  for (const std::size_t u : topo) {
    dist[u] += graph.units[u].work;
    result.critical_path = std::max(result.critical_path, dist[u]);
    if (level[u] >= result.level_width.size()) {
      result.level_width.resize(level[u] + 1, 0);
    }
    ++result.level_width[level[u]];
    for (const std::size_t v : succ[u]) {
      dist[v] = std::max(dist[v], dist[u]);
      level[v] = std::max(level[v], level[u] + 1);
    }
  }
  for (const std::size_t w : result.level_width) {
    result.max_width = std::max(result.max_width, w);
  }
  return result;
}

namespace {

Placement empty_placement(std::size_t units, unsigned lanes) {
  Placement placed;
  placed.lanes = std::max(1u, lanes);
  if (units != 0) {
    placed.lanes = static_cast<unsigned>(
        std::min<std::size_t>(placed.lanes, units));
  }
  placed.lane_of.assign(units, 0);
  placed.lane_units.resize(placed.lanes);
  placed.lane_work.assign(placed.lanes, 0);
  return placed;
}

}  // namespace

Placement place_lpt(std::span<const std::size_t> work, unsigned lanes) {
  Placement placed = empty_placement(work.size(), lanes);
  // Descending work, index ascending on ties — fully deterministic.
  std::vector<std::size_t> order(work.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (work[a] != work[b]) return work[a] > work[b];
    return a < b;
  });
  for (const std::size_t u : order) {
    std::size_t lane = 0;
    for (std::size_t l = 1; l < placed.lane_work.size(); ++l) {
      if (placed.lane_work[l] < placed.lane_work[lane]) lane = l;
    }
    placed.lane_of[u] = static_cast<unsigned>(lane);
    placed.lane_units[lane].push_back(u);
    placed.lane_work[lane] += work[u];
  }
  for (const std::size_t w : placed.lane_work) {
    placed.makespan = std::max(placed.makespan, w);
  }
  return placed;
}

Placement place_round_robin(std::span<const std::size_t> work,
                            unsigned lanes) {
  Placement placed = empty_placement(work.size(), lanes);
  for (std::size_t u = 0; u < work.size(); ++u) {
    const std::size_t lane = u % placed.lanes;
    placed.lane_of[u] = static_cast<unsigned>(lane);
    placed.lane_units[lane].push_back(u);
    placed.lane_work[lane] += work[u];
  }
  for (const std::size_t w : placed.lane_work) {
    placed.makespan = std::max(placed.makespan, w);
  }
  return placed;
}

namespace {

Unit unit_of_subplan(const SubPlan& sub, std::string label) {
  Unit unit;
  unit.label = std::move(label);
  unit.work = sub.cost();
  for (const std::size_t s : sub.survivors()) {
    unit.reads.push_back(Access{s, 0, kRangeEnd});
  }
  for (const std::size_t u : sub.unknowns()) {
    unit.writes.push_back(Access{u, 0, kRangeEnd});
  }
  return unit;
}

}  // namespace

HazardGraph graph_of_subplans(std::span<const SubPlan> groups,
                              const SubPlan* rest) {
  HazardGraph graph;
  graph.units.reserve(groups.size() + (rest != nullptr ? 1 : 0));
  for (std::size_t i = 0; i < groups.size(); ++i) {
    graph.units.push_back(
        unit_of_subplan(groups[i], "group " + size_str(i)));
  }
  if (rest != nullptr) {
    const std::size_t rest_index = graph.units.size();
    graph.units.push_back(unit_of_subplan(*rest, "rest"));
    for (std::size_t i = 0; i < rest_index; ++i) {
      graph.edges.emplace_back(i, rest_index);
    }
  }
  return graph;
}

HazardGraph graph_of_plan(const CachedPlan& plan) {
  return graph_of_subplans(
      plan.groups(),
      plan.rest().has_value() ? &*plan.rest() : nullptr);
}

HazardGraph graph_of_slices(const SubPlan& plan,
                            std::span<const SliceRange> slices) {
  HazardGraph graph;
  graph.units.reserve(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    Unit unit;
    unit.label = "slice " + size_str(i);
    // Every slice runs the full op list over its bytes, so its weight is
    // ops × bytes (mult_XOR·byte units — consistent within one slice
    // graph; speedup_bound stays dimensionless).
    unit.work = plan.cost() * slices[i].bytes;
    const std::size_t begin = slices[i].offset;
    const std::size_t end = begin + slices[i].bytes;
    for (const std::size_t s : plan.survivors()) {
      unit.reads.push_back(Access{s, begin, end});
    }
    for (const std::size_t u : plan.unknowns()) {
      unit.writes.push_back(Access{u, begin, end});
    }
    graph.units.push_back(std::move(unit));
  }
  return graph;
}

HazardGraph graph_of_schedule(const XorSchedule& schedule, std::size_t rows,
                              std::size_t cols) {
  HazardGraph graph;
  graph.units.resize(rows);
  for (std::size_t t = 0; t < rows; ++t) {
    graph.units[t].label = "target " + size_str(t);
    // Each target writes its own output row; rows live above the survivor
    // columns in a disjoint block namespace.
    graph.units[t].writes.push_back(Access{cols + t, 0, kRangeEnd});
  }
  for (const XorOp& op : schedule.ops) {
    if (op.target >= rows) continue;  // analyze_schedule reports these
    Unit& unit = graph.units[op.target];
    ++unit.work;
    if (op.from_output) {
      if (op.source >= rows || op.source == op.target) continue;
      unit.reads.push_back(Access{cols + op.source, 0, kRangeEnd});
      const auto edge = std::make_pair(op.source, op.target);
      if (std::find(graph.edges.begin(), graph.edges.end(), edge) ==
          graph.edges.end()) {
        graph.edges.push_back(edge);
      }
    } else if (op.source < cols) {
      unit.reads.push_back(Access{op.source, 0, kRangeEnd});
    }
  }
  return graph;
}

Analysis analyze_plan(const CachedPlan& plan) {
  return analyze(graph_of_plan(plan));
}

PlanReadiness plan_readiness(const CachedPlan& plan) {
  const HazardGraph graph = graph_of_plan(plan);
  // Blocks any unit writes are recovered by compute; they are never
  // fetch inputs, even when a later unit (rest) reads them.
  std::vector<std::size_t> written;
  for (const Unit& unit : graph.units) {
    for (const Access& w : unit.writes) written.push_back(w.block);
  }
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());

  const auto inputs_of = [&written](const Unit& unit) {
    std::vector<std::size_t> inputs;
    inputs.reserve(unit.reads.size());
    for (const Access& r : unit.reads) {
      if (!std::binary_search(written.begin(), written.end(), r.block)) {
        inputs.push_back(r.block);
      }
    }
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    return inputs;
  };

  PlanReadiness out;
  // graph_of_plan unit order: the p group units first, rest (if any) last.
  out.has_rest = plan.rest().has_value();
  const std::size_t group_count =
      graph.units.size() - (out.has_rest ? 1 : 0);
  out.group_inputs.reserve(group_count);
  for (std::size_t i = 0; i < group_count; ++i) {
    out.group_inputs.push_back(inputs_of(graph.units[i]));
  }
  if (out.has_rest) out.rest_inputs = inputs_of(graph.units.back());

  for (const auto& g : out.group_inputs) {
    out.all_inputs.insert(out.all_inputs.end(), g.begin(), g.end());
  }
  out.all_inputs.insert(out.all_inputs.end(), out.rest_inputs.begin(),
                        out.rest_inputs.end());
  std::sort(out.all_inputs.begin(), out.all_inputs.end());
  out.all_inputs.erase(
      std::unique(out.all_inputs.begin(), out.all_inputs.end()),
      out.all_inputs.end());
  return out;
}

Analysis analyze_slices(const SubPlan& plan,
                        std::span<const SliceRange> slices,
                        std::size_t block_bytes, unsigned symbol_bytes) {
  Analysis result = analyze(graph_of_slices(plan, slices));
  auto& out = result.violations;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const SliceRange& s = slices[i];
    if (symbol_bytes != 0 &&
        (s.offset % symbol_bytes != 0 || s.bytes % symbol_bytes != 0)) {
      report(out, ViolationKind::kSliceMisalignment, i, kNoIndex,
             "slice " + size_str(i) + " [" + size_str(s.offset) + "," +
                 size_str(s.offset + s.bytes) +
                 ") is not aligned to the " + size_str(symbol_bytes) +
                 "-byte symbol size");
    }
    if (s.offset != expected) {
      report(out, ViolationKind::kSliceMisalignment, i, kNoIndex,
             "slice " + size_str(i) + " starts at byte " +
                 size_str(s.offset) + " but the previous slice ended at " +
                 size_str(expected) + " (gap or overlap)");
    }
    expected = s.offset + s.bytes;
  }
  // Coverage must reach the symbol floor of the region; a tail shorter
  // than one symbol cannot be decoded by any slice and is excluded by the
  // plan_slices contract.
  const std::size_t floor =
      symbol_bytes == 0 ? block_bytes
                        : block_bytes / symbol_bytes * symbol_bytes;
  if (expected != floor) {
    report(out, ViolationKind::kSliceMisalignment, kNoIndex, kNoIndex,
           "slices cover [0," + size_str(expected) + ") of a " +
               size_str(block_bytes) + "-byte region (decodable floor " +
               size_str(floor) + ")");
  }
  return result;
}

Analysis analyze_schedule(const XorSchedule& schedule, const Matrix& g) {
  const std::size_t rows = g.rows();
  // The register file spans the matrix's target rows plus the
  // optimizer's temporaries; each temporary is its own execution unit
  // (it writes a scratch region disjoint from every row).
  const std::size_t regs = rows + schedule.temps;
  Analysis result = analyze(graph_of_schedule(schedule, regs, g.cols()));
  // Out-of-range indices are a malformed schedule: such an op belongs to
  // no unit, so graph_of_schedule drops it from the DAG — which must be
  // reported, not silent, or the analysis would certify a program it
  // never saw in full.
  std::vector<std::size_t> out_of_range;
  std::vector<std::size_t> fragmented;
  const std::vector<TargetSpan> spans =
      target_spans(schedule, regs, &out_of_range, &fragmented);
  for (const std::size_t i : out_of_range) {
    report(result.violations, ViolationKind::kXorIndexOutOfBounds, kNoIndex,
           i,
           "op " + size_str(i) + " targets register " +
               size_str(schedule.ops[i].target) + " of a " + size_str(regs) +
               "-register system; the op belongs to no execution unit");
  }
  // Post-optimizer schedules must keep every register's op span
  // contiguous: a span containing foreign ops is not a dispatchable unit,
  // and treating it as one would silently misattribute work. Structured
  // violation instead of a wrong span.
  for (const std::size_t t : fragmented) {
    report(result.violations, ViolationKind::kXorTargetSpanFragmented, t,
           spans[t].first_op,
           "register " + size_str(t) + "'s op span [" +
               size_str(spans[t].first_op) + "," +
               size_str(spans[t].last_op) +
               "] contains ops writing other registers; the span is not a "
               "schedulable unit");
  }
  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    const XorOp& op = schedule.ops[i];
    if (op.from_output && op.target < regs && op.source >= regs) {
      report(result.violations, ViolationKind::kXorIndexOutOfBounds,
             op.target, i,
             "op " + size_str(i) + " reads register " + size_str(op.source) +
                 " of a " + size_str(regs) + "-register system");
    }
    if (!op.from_output || op.target >= regs || op.source >= regs ||
        op.source == op.target) {
      continue;
    }
    const TargetSpan& src = spans[op.source];
    if (src.first_op == kNoOp) {
      report(result.violations, ViolationKind::kUnorderedFromOutputUse,
             op.target, i,
             "op " + size_str(i) + " reads target " + size_str(op.source) +
                 " which no op ever writes");
    } else if (src.last_op > spans[op.target].first_op) {
      report(result.violations, ViolationKind::kUnorderedFromOutputUse,
             op.target, i,
             "op " + size_str(i) + " reads target " + size_str(op.source) +
                 " whose writes (through op " + size_str(src.last_op) +
                 ") interleave with target " + size_str(op.target) +
                 "'s unit starting at op " +
                 size_str(spans[op.target].first_op));
    }
  }
  return result;
}

}  // namespace ppm::hazard
