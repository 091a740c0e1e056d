// The executors must actually consume the hazard DAG: LPT lane placement
// of group units (hazard::place_lpt vs. the Algorithm-1 round-robin
// baseline), the completion-signaling DAG runner (parallel/dag_executor),
// and the unit-parallel XOR-schedule executor, which must stay
// byte-identical to the serial executor across every code family and fall
// back to serial whenever the schedule is not provably unit-safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "test_util.h"

namespace ppm {
namespace {

using planverify::ViolationKind;

// ---------------------------------------------------------------------------
// Placement: LPT vs round-robin.

TEST(Placement, LptBeatsRoundRobinOnSkewedWork) {
  // Round-robin pairs both heavy units onto lane 0 (indices 0 and 4);
  // LPT splits them.
  const std::vector<std::size_t> work = {10, 1, 1, 1, 10, 1};
  const auto lpt = hazard::place_lpt(work, 2);
  const auto rr = hazard::place_round_robin(work, 2);
  EXPECT_EQ(rr.makespan, 21u);  // 10 + 1 + 10
  EXPECT_EQ(lpt.makespan, 12u);
  EXPECT_LT(lpt.makespan, rr.makespan);
}

TEST(Placement, LptStaysWithinGrahamBound) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.bounded(16);
    const unsigned lanes = 1 + static_cast<unsigned>(rng.bounded(6));
    std::vector<std::size_t> work(n);
    std::size_t total = 0;
    std::size_t heaviest = 0;
    for (auto& w : work) {
      w = 1 + rng.bounded(100);
      total += w;
      heaviest = std::max(heaviest, w);
    }
    const auto placed = hazard::place_lpt(work, lanes);
    // Graham's bound for list scheduling, and the trivial floors.
    EXPECT_LE(placed.makespan, total / placed.lanes + heaviest);
    EXPECT_GE(placed.makespan, heaviest);
    EXPECT_GE(placed.makespan * placed.lanes, total);
  }
}

TEST(Placement, AssignmentIsConsistentAndDeterministic) {
  const std::vector<std::size_t> work = {7, 3, 3, 2};
  const auto a = hazard::place_lpt(work, 2);
  const auto b = hazard::place_lpt(work, 2);
  EXPECT_EQ(a.lane_of, b.lane_of);
  EXPECT_EQ(a.makespan, 8u);  // {7} vs {3, 3, 2}
  // lane_of, lane_units and lane_work tell one coherent story.
  std::size_t placed_units = 0;
  for (std::size_t l = 0; l < a.lane_units.size(); ++l) {
    std::size_t sum = 0;
    for (const std::size_t u : a.lane_units[l]) {
      EXPECT_EQ(a.lane_of[u], l);
      sum += work[u];
      ++placed_units;
    }
    EXPECT_EQ(a.lane_work[l], sum);
  }
  EXPECT_EQ(placed_units, work.size());
}

TEST(Placement, LanesNeverExceedUnits) {
  const std::vector<std::size_t> work = {5, 4};
  const auto placed = hazard::place_lpt(work, 8);
  EXPECT_EQ(placed.lanes, 2u);
  EXPECT_EQ(placed.lane_units.size(), 2u);
  EXPECT_EQ(placed.makespan, 5u);
  const auto one = hazard::place_round_robin(work, 0);
  EXPECT_EQ(one.lanes, 1u);
  EXPECT_EQ(one.makespan, 9u);
}

// ---------------------------------------------------------------------------
// Completion-signaling DAG runner.

TEST(DagExecutor, RunsEveryUnitOnceRespectingEdges) {
  // Diamond over 6 units plus an isolated pair.
  const std::vector<std::pair<std::size_t, std::size_t>> edges = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};
  for (const unsigned threads : {1u, 2u, 4u}) {
    std::mutex mu;
    std::vector<std::size_t> finish_order;
    const auto report = run_unit_dag(
        6, edges, threads,
        [&](std::size_t u) {
          const std::scoped_lock lock(mu);
          finish_order.push_back(u);
        });
    ASSERT_TRUE(report.ran) << "threads=" << threads;
    EXPECT_GE(report.workers_used, 1u);
    ASSERT_EQ(finish_order.size(), 6u);
    std::vector<std::size_t> position(6);
    for (std::size_t i = 0; i < finish_order.size(); ++i) {
      position[finish_order[i]] = i;
    }
    for (const auto& [from, to] : edges) {
      EXPECT_LT(position[from], position[to])
          << from << "->" << to << " with threads=" << threads;
    }
  }
}

TEST(DagExecutor, RefusesCyclesWithoutRunningAnything) {
  const std::vector<std::pair<std::size_t, std::size_t>> edges = {
      {0, 1}, {1, 2}, {2, 0}};
  std::atomic<std::size_t> runs{0};
  for (const unsigned threads : {1u, 4u}) {
    const auto report =
        run_unit_dag(3, edges, threads, [&](std::size_t) { ++runs; });
    EXPECT_FALSE(report.ran);
  }
  EXPECT_EQ(runs.load(), 0u);
}

TEST(DagExecutor, SerialOrderIsPriorityAwareTopological) {
  // Two independent chains; heavier units must be dispatched first among
  // the simultaneously ready.
  const std::vector<std::pair<std::size_t, std::size_t>> edges = {{0, 1},
                                                                  {2, 3}};
  const std::vector<std::size_t> weight = {1, 1, 9, 9};
  std::vector<std::size_t> order;
  const auto report = run_unit_dag(
      4, edges, 1, [&](std::size_t u) { order.push_back(u); }, weight);
  ASSERT_TRUE(report.ran);
  EXPECT_EQ(report.workers_used, 1u);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 3, 0, 1}));
}

// ---------------------------------------------------------------------------
// Unit-parallel XOR execution.

std::vector<std::vector<std::uint8_t>> run_schedule(
    const XorSchedule& schedule, std::size_t rows, std::size_t cols,
    std::size_t bytes, std::uint64_t seed, unsigned threads,
    ParallelXorReport* report = nullptr) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> sources(cols);
  std::vector<std::uint8_t*> src(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    sources[c] = test::random_bytes(rng, bytes);
    src[c] = sources[c].data();
  }
  std::vector<std::vector<std::uint8_t>> targets(
      rows, std::vector<std::uint8_t>(bytes, 0xEE));
  std::vector<std::uint8_t*> tgt(rows);
  for (std::size_t r = 0; r < rows; ++r) tgt[r] = targets[r].data();
  if (threads == 0) {
    execute_xor_schedule(schedule, src.data(), tgt.data(), bytes);
  } else {
    const auto rep = execute_xor_schedule_parallel(
        schedule, rows, src.data(), tgt.data(), bytes, threads);
    if (report != nullptr) *report = rep;
  }
  return targets;
}

TEST(XorScheduleParallel, ByteIdenticalOnRandomBinaryMatrices) {
  Rng rng(800);
  std::size_t engaged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = 2 + rng.bounded(12);
    const std::size_t cols = 1 + rng.bounded(24);
    Matrix g(gf::field(8), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        g(r, c) = rng.bounded(100) < 45 ? 1 : 0;
      }
    }
    const auto schedule = plan_xor_schedule(g);
    ASSERT_TRUE(schedule.has_value());
    const std::uint64_t seed = 801 + trial;
    const auto serial = run_schedule(*schedule, rows, cols, 96, seed, 0);
    ParallelXorReport report;
    const auto parallel =
        run_schedule(*schedule, rows, cols, 96, seed, 4, &report);
    EXPECT_EQ(serial, parallel) << "trial " << trial;
    if (report.parallel) ++engaged;
  }
  // The planner's schedules have real width; the parallel path must not
  // be falling back across the board.
  EXPECT_GT(engaged, 0u);
}

TEST(XorScheduleParallel, ByteIdenticalAcrossEveryFamily) {
  // Every binary sub-system the real planner produces, for all 9 code
  // families, run both ways and compared bytewise.
  std::vector<std::unique_ptr<ErasureCode>> codes;
  codes.push_back(std::make_unique<SDCode>(8, 16, 2, 2, 8));
  codes.push_back(std::make_unique<PMDSCode>(8, 16, 2, 2, 8));
  codes.push_back(std::make_unique<LRCCode>(12, 3, 2, 8));
  codes.push_back(std::make_unique<XorbasLRCCode>(10, 2, 4, 8));
  codes.push_back(std::make_unique<RSCode>(10, 4, 8));
  codes.push_back(std::make_unique<CRSCode>(10, 4, 8));
  codes.push_back(std::make_unique<EvenOddCode>(7));
  codes.push_back(std::make_unique<RDPCode>(7));
  codes.push_back(std::make_unique<StarCode>(7));
  std::size_t schedules = 0;
  for (const auto& code : codes) {
    ScenarioGenerator gen(9);
    const auto sc = gen.disk_failures(*code, 2).scenario;
    Codec codec(*code);
    const auto plan = codec.plan_for(sc);
    ASSERT_NE(plan, nullptr) << code->name();
    const auto check = [&](const SubPlan& sub) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto schedule = plan_xor_schedule(applied);
      if (!schedule.has_value()) return;  // non-binary system
      ++schedules;
      const std::uint64_t seed = 900 + schedules;
      const auto serial = run_schedule(*schedule, applied.rows(),
                                       applied.cols(), 128, seed, 0);
      const auto parallel = run_schedule(*schedule, applied.rows(),
                                         applied.cols(), 128, seed, 4);
      EXPECT_EQ(serial, parallel) << code->name();
    };
    for (const SubPlan& sub : plan->groups()) check(sub);
    if (plan->rest().has_value()) check(*plan->rest());
  }
  EXPECT_GT(schedules, 0u);
}

TEST(XorScheduleParallel, EngagesOnWideIndependentSchedule) {
  // 4 targets, no from_output edges: full width.
  const Matrix g(gf::field(8), 4, 4,
                 {1, 1, 0, 0,
                  0, 1, 1, 0,
                  0, 0, 1, 1,
                  1, 0, 0, 1});
  const auto schedule = plan_xor_schedule(g);
  ASSERT_TRUE(schedule.has_value());
  ParallelXorReport report;
  const auto parallel = run_schedule(*schedule, 4, 4, 64, 77, 4, &report);
  const auto serial = run_schedule(*schedule, 4, 4, 64, 77, 0);
  EXPECT_EQ(serial, parallel);
  EXPECT_TRUE(report.parallel);
  EXPECT_GE(report.workers, 2u);
  EXPECT_EQ(report.units, 4u);
  EXPECT_GE(report.max_width, 2u);
}

TEST(XorScheduleParallel, FallsBackOnInterleavedFromOutputUse) {
  // Target 1 copies target 0 before target 0 is finalized: legal serially
  // (verify_xor_schedule's read-before-final rule), but not safe to
  // unit-parallelize — the executor must detect it and run serially,
  // reproducing the serial (partial-value) semantics exactly.
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});   // t0 = s0
  schedule.ops.push_back({true, 0, 1, true});    // t1 = t0 (partial!)
  schedule.ops.push_back({false, 1, 0, false});  // t0 ^= s1
  ParallelXorReport report;
  const auto parallel = run_schedule(schedule, 2, 2, 64, 88, 4, &report);
  const auto serial = run_schedule(schedule, 2, 2, 64, 88, 0);
  EXPECT_FALSE(report.parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(XorScheduleParallel, FallsBackWhenNoWidth) {
  // A pure chain: t0 -> t1 -> t2; width 1, nothing to overlap.
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});
  schedule.ops.push_back({true, 0, 1, true});
  schedule.ops.push_back({false, 1, 1, false});
  schedule.ops.push_back({true, 1, 2, true});
  schedule.ops.push_back({false, 0, 2, false});
  ParallelXorReport report;
  const auto parallel = run_schedule(schedule, 3, 2, 64, 99, 4, &report);
  const auto serial = run_schedule(schedule, 3, 2, 64, 99, 0);
  EXPECT_FALSE(report.parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(XorScheduleParallel, FallsBackOnOutOfRangeTarget) {
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});
  schedule.ops.push_back({false, 0, 1, true});
  schedule.ops.push_back({false, 1, 5, true});  // target 5 of a 2-row system
  std::vector<std::vector<std::uint8_t>> targets(
      6, std::vector<std::uint8_t>(32, 0));
  std::vector<std::uint8_t*> tgt(6);
  for (std::size_t r = 0; r < 6; ++r) tgt[r] = targets[r].data();
  std::vector<std::uint8_t> s0(32, 0xAB);
  std::vector<std::uint8_t> s1(32, 0xCD);
  std::vector<std::uint8_t*> src = {s0.data(), s1.data()};
  const auto report = execute_xor_schedule_parallel(schedule, 2, src.data(),
                                                    tgt.data(), 32, 4);
  EXPECT_FALSE(report.parallel);  // malformed: serial semantics preserved
  EXPECT_EQ(targets[5], s1);
}

// ---------------------------------------------------------------------------
// The hazard pass must surface out-of-range ops (satellite bugfix): they
// previously vanished from the DAG via target_spans' silent skip.

TEST(HazardSchedule, OutOfRangeTargetIsReportedNotDropped) {
  const Matrix g(gf::field(8), 2, 2, {1, 1, 0, 1});
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});
  schedule.ops.push_back({false, 1, 0, false});
  schedule.ops.push_back({false, 0, 7, true});  // row 7 of a 2-row system
  schedule.ops.push_back({false, 0, 1, true});
  const auto analysis = hazard::analyze_schedule(schedule, g);
  ASSERT_FALSE(analysis.ok());
  EXPECT_TRUE(std::any_of(
      analysis.violations.begin(), analysis.violations.end(),
      [](const planverify::Violation& v) {
        return v.kind == ViolationKind::kXorIndexOutOfBounds && v.op == 2;
      }))
      << planverify::to_json(analysis.violations);
}

TEST(HazardSchedule, OutOfRangeFromOutputSourceIsReported) {
  const Matrix g(gf::field(8), 2, 2, {1, 1, 0, 1});
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});
  schedule.ops.push_back({true, 9, 1, true});  // reads target 9 of 2
  const auto analysis = hazard::analyze_schedule(schedule, g);
  ASSERT_FALSE(analysis.ok());
  EXPECT_TRUE(std::any_of(
      analysis.violations.begin(), analysis.violations.end(),
      [](const planverify::Violation& v) {
        return v.kind == ViolationKind::kXorIndexOutOfBounds && v.op == 1;
      }))
      << planverify::to_json(analysis.violations);
}

TEST(HazardSchedule, TargetSpansCollectsOutOfRangeOps) {
  XorSchedule schedule;
  schedule.ops.push_back({false, 0, 0, true});
  schedule.ops.push_back({false, 0, 3, true});
  schedule.ops.push_back({false, 0, 1, true});
  schedule.ops.push_back({false, 0, 4, false});
  std::vector<std::size_t> oob;
  const auto spans = target_spans(schedule, 2, &oob);
  EXPECT_EQ(oob, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(spans[0].first_op, 0u);
  EXPECT_EQ(spans[1].first_op, 2u);
}

// ---------------------------------------------------------------------------
// PpmDecoder consumes the placement.

TEST(PpmPlacement, DecoderRecordsExecutedLanes) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 120);
  ScenarioGenerator gen(121);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  PpmOptions opts;
  opts.threads = 4;
  const PpmDecoder dec(code, opts);
  const auto res =
      dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(stripe.equals(snap));
  ASSERT_EQ(res->lane_of.size(), res->task_seconds.size());
  EXPECT_EQ(res->threads_used, std::min<unsigned>(4, res->p));
  for (const unsigned lane : res->lane_of) {
    EXPECT_LT(lane, res->threads_used);
  }
  // The executed makespan is bracketed by the critical path below and the
  // serial sum above.
  const double placed = res->placed_makespan_seconds();
  EXPECT_GE(placed, res->critical_path_seconds());
  double sum = 0;
  for (const double t : res->task_seconds) sum += t;
  EXPECT_LE(placed, sum + 1e-12);
}

TEST(PpmPlacement, LptModelBeatsRoundRobinOnSkewedGroups) {
  // Skewed scenario: one row carries 3 faults, three rows carry 1 each —
  // the group costs differ enough that on 2 lanes LPT strictly beats the
  // i mod T baseline in exact mult_XOR units.
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 122);
  ScenarioGenerator gen(123);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  ASSERT_GE(plan->p(), 3u);
  std::vector<std::size_t> work;
  for (const SubPlan& sub : plan->groups()) work.push_back(sub.cost());
  // If the generator happened to produce near-uniform groups, skew them
  // deterministically: the property under test is the placer's.
  std::sort(work.begin(), work.end(), std::greater<>());
  work[0] = work[0] * 3 + 1;
  const auto lpt = hazard::place_lpt(work, 2);
  const auto rr = hazard::place_round_robin(work, 2);
  EXPECT_LT(lpt.makespan, rr.makespan) << "work skew did not materialize";
  // And LPT respects the Graham bound around the critical path.
  const std::size_t total = std::accumulate(work.begin(), work.end(),
                                            std::size_t{0});
  EXPECT_LE(lpt.makespan, total / 2 + work[0]);
}

TEST(PpmPlacement, OverheadModelChargesOnlySpawnedThreads) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 2048);
  test::fill_and_encode(code, stripe, 124);
  ScenarioGenerator gen(125);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  PpmOptions opts;
  opts.threads = 4;
  const PpmDecoder dec(code, opts);
  const auto res =
      dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  const std::size_t tasks = res->task_seconds.size();
  ASSERT_GT(tasks, 1u);
  // Asking the model for more lanes than tasks must charge only the
  // threads a real run would spawn: min(lanes, tasks).
  const double spawn = ThreadPool::thread_spawn_seconds();
  const unsigned lanes = static_cast<unsigned>(tasks) + 5;
  EXPECT_NEAR(res->modeled_seconds_with_overhead(lanes),
              res->modeled_seconds(lanes) +
                  static_cast<double>(tasks) * spawn,
              1e-12);
}

}  // namespace
}  // namespace ppm
