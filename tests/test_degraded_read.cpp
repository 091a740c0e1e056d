// Degraded reads: minimal-cost single-block recovery.
#include <gtest/gtest.h>

#include "codes/crs_code.h"
#include "codes/lrc_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "codes/xorbas_lrc_code.h"
#include "decode/degraded_read.h"
#include "test_util.h"

namespace ppm {
namespace {

TEST(DegradedRead, LrcDataStripUsesLocalGroup) {
  const LRCCode code(12, 3, 2, 8);  // groups of 4
  const DegradedReader reader(code);
  const FailureScenario sc({5});
  const auto plan = reader.plan(5, sc);
  ASSERT_TRUE(plan.has_value());
  // Local repair: 3 group peers + the local parity.
  EXPECT_EQ(plan->cost, 4u);
  EXPECT_EQ(plan->survivors, 4u);
}

TEST(DegradedRead, LrcRecoversCorrectBytes) {
  const LRCCode code(12, 3, 2, 8);
  Stripe stripe(code, 1024);
  const auto snap = test::fill_and_encode(code, stripe, 510);
  const FailureScenario sc({5});
  stripe.erase(sc);
  const DegradedReader reader(code);
  DecodeStats stats;
  ASSERT_TRUE(reader.read(5, sc, stripe.block_ptrs(), 1024, &stats));
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(stats.mult_xors, 4u);
}

TEST(DegradedRead, SdSectorUsesRowParity) {
  const SDCode code(8, 8, 2, 2, 8);
  const DegradedReader reader(code);
  const FailureScenario sc({9});  // row 1, disk 1
  const auto plan = reader.plan(9, sc);
  ASSERT_TRUE(plan.has_value());
  // One row equation reads the other n-1 = 7 blocks of the row.
  EXPECT_EQ(plan->cost, 7u);
}

TEST(DegradedRead, FallsBackToRowCombination) {
  // Both blocks of a 2-block local group are unavailable: no single clean
  // row exists for a data strip, but a combination of its local row and a
  // global row still recovers it.
  const LRCCode code(8, 4, 2, 8);  // groups of 2
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 511);
  const FailureScenario sc({0, 1});  // all of group 0
  stripe.erase(sc);
  const DegradedReader reader(code);
  const auto plan = reader.plan(0, sc);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->cost, 2u);  // costlier than a clean local repair
  ASSERT_TRUE(reader.read(0, sc, stripe.block_ptrs(), 512));
  EXPECT_TRUE(stripe.blocks_equal(snap, std::vector<std::size_t>{0}));
}

TEST(DegradedRead, PrefersCheapestEquation) {
  // For an RS strip every parity row is equally wide; cost must equal k
  // (read all data peers or equivalent).
  const RSCode code(10, 4, 8);
  const DegradedReader reader(code);
  const FailureScenario sc({3});
  const auto plan = reader.plan(3, sc);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cost, 10u);  // 9 data peers + 1 parity
}

TEST(DegradedRead, TargetMustBeUnavailable) {
  const LRCCode code(8, 2, 2, 8);
  const DegradedReader reader(code);
  EXPECT_FALSE(reader.plan(0, FailureScenario({1})).has_value());
}

TEST(DegradedRead, UnrecoverableTargetReturnsNullopt) {
  // Wipe out an entire local group plus every global helper: more
  // unknowns than equations.
  const LRCCode code(4, 2, 1, 8);  // groups of 2, 1 global
  const DegradedReader reader(code);
  // Group 0 = {0,1}; also lose the local parity 4 and the global 6.
  const FailureScenario sc({0, 1, 4, 6});
  EXPECT_FALSE(reader.plan(0, sc).has_value());
}

TEST(DegradedRead, ParityBlockIsReadable) {
  // Degraded read of a lost parity strip (rebuild-in-place path).
  const LRCCode code(12, 3, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 512);
  const std::size_t local_parity = code.local_parity_block(1);
  const FailureScenario sc({local_parity});
  stripe.erase(sc);
  const DegradedReader reader(code);
  ASSERT_TRUE(reader.read(local_parity, sc, stripe.block_ptrs(), 512));
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(DegradedRead, EveryBlockOfEveryCodeReadable) {
  // Property: with only the target unavailable, every block of every code
  // is degraded-readable and restores exact bytes.
  const SDCode sd(6, 4, 2, 1, 8);
  const LRCCode lrc(8, 2, 2, 8);
  const RSCode rs(6, 3, 8);
  const ErasureCode* codes[] = {&sd, &lrc, &rs};
  for (const ErasureCode* code : codes) {
    Stripe stripe(*code, 256);
    const auto snap = test::fill_and_encode(*code, stripe, 513);
    const DegradedReader reader(*code);
    for (std::size_t b = 0; b < code->total_blocks(); ++b) {
      const FailureScenario sc({b});
      stripe.erase(sc);
      ASSERT_TRUE(reader.read(b, sc, stripe.block_ptrs(), 256))
          << code->name() << " block " << b;
      ASSERT_TRUE(stripe.equals(snap)) << code->name() << " block " << b;
    }
  }
}


TEST(DegradedRead, XorbasGlobalParityLocalRepair) {
  // A lost global parity repairs from the global-local group: 4 reads
  // (3 global peers + the global-local parity), never the 10 data strips.
  const XorbasLRCCode code(10, 2, 4, 8);
  const std::size_t victim = code.global_parity_block(2);
  const DegradedReader reader(code);
  const auto plan = reader.plan(victim, FailureScenario({victim}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cost, 4u);
}

TEST(DegradedRead, CrsPacketRecovery) {
  // One lost packet of a CRS strip recovers from one parity packet row.
  const CRSCode code(6, 2, 8);
  Stripe stripe(code, 128);
  const auto snap = test::fill_and_encode(code, stripe, 514);
  const std::size_t victim = code.packet_block(3, 2);
  const FailureScenario sc({victim});
  stripe.erase(sc);
  const DegradedReader reader(code);
  DecodeStats stats;
  ASSERT_TRUE(reader.read(victim, sc, stripe.block_ptrs(), 128, &stats));
  EXPECT_TRUE(stripe.equals(snap));
}


TEST(DegradedRead, TargetNotUnavailableIsDistinguished) {
  // Asking for a block that is readable is a caller error, not a data-loss
  // condition; the taxonomy must say so.
  const LRCCode code(12, 3, 2, 8);
  const DegradedReader reader(code);
  DegradedReadError error = DegradedReadError::kInsufficientSurvivors;
  const auto plan = reader.plan(5, FailureScenario({3}), &error);
  EXPECT_FALSE(plan.has_value());
  EXPECT_EQ(error, DegradedReadError::kTargetNotUnavailable);

  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 516);
  error = DegradedReadError::kNone;
  EXPECT_FALSE(reader.read(5, FailureScenario({3}), stripe.block_ptrs(), 256,
                           nullptr, &error));
  EXPECT_EQ(error, DegradedReadError::kTargetNotUnavailable);
}

TEST(DegradedRead, InsufficientSurvivorsIsDistinguished) {
  // RS(4,2) cannot express block 0 when three blocks are unavailable:
  // genuinely insufficient survivors, the fall-back-to-full-decode (or
  // data-loss) class.
  const RSCode code(4, 2, 8);
  const DegradedReader reader(code);
  DegradedReadError error = DegradedReadError::kNone;
  const auto plan = reader.plan(0, FailureScenario({0, 1, 2}), &error);
  EXPECT_FALSE(plan.has_value());
  EXPECT_EQ(error, DegradedReadError::kInsufficientSurvivors);

  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 517);
  error = DegradedReadError::kNone;
  EXPECT_FALSE(reader.read(0, FailureScenario({0, 1, 2}),
                           stripe.block_ptrs(), 256, nullptr, &error));
  EXPECT_EQ(error, DegradedReadError::kInsufficientSurvivors);
}

TEST(DegradedRead, SuccessReportsNoError) {
  const LRCCode code(12, 3, 2, 8);
  const DegradedReader reader(code);
  DegradedReadError error = DegradedReadError::kInsufficientSurvivors;
  const auto plan = reader.plan(5, FailureScenario({5}), &error);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(error, DegradedReadError::kNone);
}

TEST(DegradedRead, BlocksReadStatTracksSurvivors) {
  const LRCCode code(12, 3, 2, 8);
  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 515);
  const FailureScenario sc({5});
  stripe.erase(sc);
  const DegradedReader reader(code);
  DecodeStats stats;
  ASSERT_TRUE(reader.read(5, sc, stripe.block_ptrs(), 256, &stats));
  EXPECT_EQ(stats.blocks_read, 4u);  // local group repair I/O
}

TEST(DegradedRead, RefusesBlocksThatSplitASymbol) {
  const SDCode code(6, 4, 2, 2, 16);
  const DegradedReader reader(code);
  Stripe stripe(code, 4098);
  test::fill_and_encode(code, stripe, 6);
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const auto erased = stripe.snapshot();
  DegradedReadError error = DegradedReadError::kNone;
  EXPECT_FALSE(
      reader.read(0, sc, stripe.block_ptrs(), 4097, nullptr, &error));
  EXPECT_EQ(error, DegradedReadError::kBlockSplitsSymbol);
  EXPECT_TRUE(stripe.equals(erased));
}

}  // namespace
}  // namespace ppm
