// CachedPlan::execute_sliced, the one stripe×slice fan-out, on the
// whole-matrix plan (the region-split baseline of [36]-[38]), and
// plan_slices, the slicing it runs on.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "test_util.h"

namespace ppm {
namespace {

/// Run `plan` on `stripe` cut into `slices` slices over `pool`.
DecodeStats run_sliced(const CachedPlan& plan, Stripe& stripe,
                       unsigned slices, ThreadPool& pool) {
  std::uint8_t* const* blocks = stripe.block_ptrs();
  const auto ranges = plan_slices(
      stripe.block_bytes(), stripe.code().field().symbol_bytes(), slices);
  return plan.execute_sliced({&blocks, 1}, stripe.block_bytes(), ranges,
                             &pool);
}

TEST(SlicedExecutor, RecoversExactBytes) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 4096);
  const auto snap = test::fill_and_encode(code, stripe, 800);
  ScenarioGenerator gen(801);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const auto plan = CachedPlan::whole_matrix(code.parity_check(), g.scenario,
                                             SequencePolicy::kAuto);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->p(), 0u);
  ASSERT_TRUE(plan->rest().has_value());
  EXPECT_EQ(plan_slices(4096, 1, 4).size(), 4u);
  ThreadPool pool(4);
  run_sliced(*plan, stripe, 4, pool);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(SlicedExecutor, SliceCountIndependentOfResult) {
  const SDCode code(6, 4, 2, 1, 8);
  Stripe stripe(code, 1024);
  const auto snap = test::fill_and_encode(code, stripe, 802);
  ScenarioGenerator gen(803);
  const auto g = gen.sd_worst_case(code, 2, 1, 1);
  const auto plan = CachedPlan::whole_matrix(code.parity_check(), g.scenario,
                                             SequencePolicy::kAuto);
  ASSERT_TRUE(plan.has_value());
  ThreadPool pool(4);
  for (const unsigned t : {1u, 2u, 3u, 5u, 8u}) {
    std::memcpy(stripe.block(0), snap.data(), snap.size());
    stripe.erase(g.scenario);
    run_sliced(*plan, stripe, t, pool);
    EXPECT_TRUE(stripe.equals(snap)) << "t=" << t;
  }
}

TEST(SlicedExecutor, OpCountMatchesWholeMatrixPlan) {
  // Slicing must not change the paper's C accounting: ops equal the
  // traditional decoder's count under the same sequence policy.
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 804);
  ScenarioGenerator gen(805);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const TraditionalDecoder trad(code);
  const auto tr = trad.decode(g.scenario, stripe.block_ptrs(), 512,
                              SequencePolicy::kAuto);
  ASSERT_TRUE(tr.has_value());
  stripe.erase(g.scenario);
  const auto plan = CachedPlan::whole_matrix(code.parity_check(), g.scenario,
                                             SequencePolicy::kAuto);
  ASSERT_TRUE(plan.has_value());
  ThreadPool pool(4);
  const DecodeStats stats = run_sliced(*plan, stripe, 4, pool);
  EXPECT_EQ(stats.mult_xors, tr->stats.mult_xors);
  EXPECT_EQ(stats.bytes_touched, tr->stats.bytes_touched);
  EXPECT_EQ(stats.blocks_read, tr->stats.blocks_read);
  EXPECT_EQ(plan->rest()->sequence(), tr->sequence_used);
}

TEST(SlicedExecutor, UndecodableReturnsNullopt) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  for (const auto policy : {SequencePolicy::kNormal,
                            SequencePolicy::kMatrixFirst,
                            SequencePolicy::kAuto}) {
    EXPECT_FALSE(CachedPlan::whole_matrix(code.parity_check(),
                                          FailureScenario({0, 1, 2}), policy)
                     .has_value());
  }
  EXPECT_FALSE(CachedPlan::partitioned(code.parity_check(),
                                       FailureScenario({0, 1, 2}))
                   .has_value());
}

TEST(SlicedExecutor, TinyBlocksCapSliceCount) {
  // 4 symbols cannot be split into 8 slices; plan_slices must cap.
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 4);
  const auto snap = test::fill_and_encode(code, stripe, 807);
  const FailureScenario sc({5});
  stripe.erase(sc);
  const auto plan = CachedPlan::whole_matrix(code.parity_check(), sc,
                                             SequencePolicy::kAuto);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan_slices(4, 1, 8).size(), 4u);
  ThreadPool pool(4);
  run_sliced(*plan, stripe, 8, pool);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(SlicedExecutor, RefusesBlocksThatSplitASymbolBeforeAnyTask) {
  const SDCode code(6, 4, 2, 2, 16);
  Stripe stripe(code, 4098);
  test::fill_and_encode(code, stripe, 812);
  ScenarioGenerator gen(813);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const auto erased = stripe.snapshot();
  const auto plan = CachedPlan::partitioned(code.parity_check(), g.scenario);
  ASSERT_TRUE(plan.has_value());
  std::uint8_t* const* blocks = stripe.block_ptrs();
  const std::vector<SliceRange> slices = {{0, 2048}, {2048, 2049}};
  ThreadPool pool(2);
  EXPECT_THROW(plan->execute_sliced({&blocks, 1}, 4097, slices, &pool),
               std::invalid_argument);
  EXPECT_TRUE(stripe.equals(erased));
}

// plan_slices is the executor's only slicing authority, so its geometric
// contract — symbol-aligned slices covering [0, block_bytes) exactly once,
// in order — must hold even for degenerate regions.
void expect_exact_tiling(const std::vector<SliceRange>& slices,
                         std::size_t block_bytes, unsigned sym) {
  std::size_t expected = 0;
  for (const SliceRange& s : slices) {
    EXPECT_EQ(s.offset, expected);
    EXPECT_GT(s.bytes, 0u);
    EXPECT_EQ(s.offset % sym, 0u);
    EXPECT_EQ(s.bytes % sym, 0u);
    expected = s.offset + s.bytes;
  }
  // Coverage is exact up to the symbol floor; a non-multiple tail cannot
  // be decoded by any slice and is excluded by contract.
  EXPECT_EQ(expected, block_bytes / sym * sym);
}

TEST(PlanSlices, RegionSmallerThanThreadsTimesSymbol) {
  // 3 two-byte symbols across 8 requested threads: capped at 3 slices.
  const auto slices = plan_slices(6, 2, 8);
  EXPECT_EQ(slices.size(), 3u);
  expect_exact_tiling(slices, 6, 2);
}

TEST(PlanSlices, SingleThreadIsOneFullSlice) {
  const auto slices = plan_slices(4096, 4, 1);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].offset, 0u);
  EXPECT_EQ(slices[0].bytes, 4096u);
  expect_exact_tiling(slices, 4096, 4);
}

TEST(PlanSlices, NonMultipleOfSymbolRegionStaysAligned) {
  // 4099 bytes of 4-byte symbols: only the 4096-byte symbol floor is
  // sliceable, and every boundary stays aligned.
  const auto slices = plan_slices(4099, 4, 4);
  EXPECT_EQ(slices.size(), 4u);
  expect_exact_tiling(slices, 4099, 4);
}

TEST(PlanSlices, UnevenSymbolCountsSpreadTheRemainder) {
  // 10 symbols over 4 threads: 3+3+2+2, never 0-length, exact cover.
  const auto slices = plan_slices(10, 1, 4);
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(slices[0].bytes, 3u);
  EXPECT_EQ(slices[1].bytes, 3u);
  EXPECT_EQ(slices[2].bytes, 2u);
  EXPECT_EQ(slices[3].bytes, 2u);
  expect_exact_tiling(slices, 10, 1);
}

TEST(PlanSlices, RegionSmallerThanOneSymbolYieldsNoSlices) {
  EXPECT_TRUE(plan_slices(3, 4, 2).empty());
}

TEST(PlanSlices, SweepAlwaysTilesExactly) {
  for (const unsigned sym : {1u, 2u, 4u}) {
    for (std::size_t block = 0; block <= 64; ++block) {
      for (const unsigned threads : {1u, 2u, 3u, 7u, 64u}) {
        expect_exact_tiling(plan_slices(block, sym, threads), block, sym);
      }
    }
  }
}

}  // namespace
}  // namespace ppm
