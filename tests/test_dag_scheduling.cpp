// The executors must actually consume the hazard DAG: LPT lane placement
// of group units (hazard::place_lpt vs. the Algorithm-1 round-robin
// baseline), which PpmDecoder records per execution, and the XOR-schedule
// hazard pass, which must report malformed ops instead of dropping them.
#include <gtest/gtest.h>

#include <algorithm>
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
  ASSERT_EQ(res->lane_of.size(), res->p);
  EXPECT_EQ(res->threads_used, std::min<unsigned>(4, res->p));
  for (const unsigned lane : res->lane_of) {
    EXPECT_LT(lane, res->threads_used);
  }
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

}  // namespace
}  // namespace ppm
