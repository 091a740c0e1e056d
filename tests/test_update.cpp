// Incremental parity updates (the small-write path).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "codec/update.h"
#include "codes/lrc_code.h"
#include "codes/rs_code.h"
#include "codes/crs_code.h"
#include "codes/sd_code.h"
#include "codes/xorbas_lrc_code.h"
#include "test_util.h"

namespace ppm {
namespace {

TEST(UpdatePlanner, LrcWriteTouchesLocalPlusGlobals) {
  const LRCCode code(12, 3, 2, 8);
  const UpdatePlanner planner(code);
  const auto affected = planner.affected_parities(5);  // group 1
  // Exactly: local parity of group 1 + both globals.
  EXPECT_EQ(affected, (std::vector<std::size_t>{code.local_parity_block(1),
                                                code.global_parity_block(0),
                                                code.global_parity_block(1)}));
}

TEST(UpdatePlanner, RsWriteTouchesAllParities) {
  const RSCode code(10, 4, 8);
  const UpdatePlanner planner(code);
  EXPECT_EQ(planner.affected_parities(0).size(), 4u);
}

TEST(UpdatePlanner, SdWriteTouchesRowAndSectorParities) {
  const SDCode code(6, 4, 2, 1, 8);
  const UpdatePlanner planner(code);
  // Data block 0 (row 0) affects the row's m=2 disk parities + the
  // stripe's s=1 coding sector — and, because that coding sector lives in
  // the last stripe row, that row's m=2 disk parities cascade as well
  // (SD codes' small-write amplification).
  const auto affected = planner.affected_parities(0);
  EXPECT_EQ(affected.size(), 5u);
  // The two parities of the written block's own row are always included.
  EXPECT_NE(planner.coefficient(4, 0), 0u);
  EXPECT_NE(planner.coefficient(5, 0), 0u);
}

TEST(UpdatePlanner, RejectsParityBlocks) {
  const LRCCode code(8, 2, 2, 8);
  const UpdatePlanner planner(code);
  EXPECT_THROW(planner.affected_parities(code.local_parity_block(0)),
               std::invalid_argument);
  EXPECT_THROW(planner.coefficient(0, 1), std::invalid_argument);
}

class UpdateRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UpdateRoundTrip, MatchesFullReencode) {
  // Property: apply_write must leave the stripe exactly as a full
  // re-encode of the mutated data would.
  const SDCode sd(6, 4, 2, 2, 8);
  const LRCCode lrc(12, 3, 2, 8);
  const RSCode rs(8, 3, 8);
  const ErasureCode* codes[] = {&sd, &lrc, &rs};
  const ErasureCode& code = *codes[GetParam() % 3];

  const std::size_t block = 512;
  Stripe incremental(code, block);
  test::fill_and_encode(code, incremental, 520 + GetParam());

  Rng rng(521 + GetParam());
  const auto data = code.data_blocks();
  const std::size_t victim = data[rng.bounded(data.size())];
  auto new_contents = test::random_bytes(rng, block);

  const UpdatePlanner planner(code);
  planner.apply_write(victim, new_contents.data(),
                      incremental.block_ptrs(), block);

  // Reference: overwrite + full re-encode on a second stripe.
  Stripe reference(code, block);
  Rng rng2(520 + GetParam());
  reference.fill_data(rng2);
  std::memcpy(reference.block(victim), new_contents.data(), block);
  const TraditionalDecoder trad(code);
  ASSERT_TRUE(trad.encode(reference.block_ptrs(), block));

  EXPECT_TRUE(incremental.equals(reference.snapshot())) << code.name();
}

INSTANTIATE_TEST_SUITE_P(Codes, UpdateRoundTrip, ::testing::Range(0, 9));

TEST(UpdatePlanner, SequentialWritesStayConsistent) {
  const LRCCode code(8, 2, 2, 8);
  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 530);
  const UpdatePlanner planner(code);
  Rng rng(531);
  for (int i = 0; i < 20; ++i) {
    const std::size_t victim = rng.bounded(code.k());
    const auto data = test::random_bytes(rng, 256);
    planner.apply_write(victim, data.data(), stripe.block_ptrs(), 256);
    ASSERT_TRUE(stripe_consistent(code, stripe.block_ptrs(), 256))
        << "after write " << i;
  }
}

TEST(UpdatePlanner, CoefficientMatchesGeneratorIdentity) {
  // For XOR-local LRC rows the generator coefficient of a data block for
  // its own local parity is 1.
  const LRCCode code(12, 3, 2, 8);
  const UpdatePlanner planner(code);
  for (std::size_t d = 0; d < code.k(); ++d) {
    EXPECT_EQ(planner.coefficient(
                  code.local_parity_block(code.group_of(d)), d),
              1u);
  }
}

TEST(UpdatePlanner, OpsCountEqualsAffectedParities) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 532);
  const UpdatePlanner planner(code);
  Rng rng(533);
  const auto data = test::random_bytes(rng, 256);
  const std::size_t victim = 1;
  const std::size_t ops =
      planner.apply_write(victim, data.data(), stripe.block_ptrs(), 256);
  EXPECT_EQ(ops, planner.affected_parities(victim).size());
}


TEST(UpdatePlanner, WorksOnCrsAndXorbas) {
  // CRS: packet-granular generator; Xorbas: the global-local parity makes
  // a data write cascade into it through the globals.
  const CRSCode crs(6, 2, 8);
  Stripe cs(crs, 256);
  test::fill_and_encode(crs, cs, 534);
  const UpdatePlanner cp(crs);
  Rng rng(535);
  const auto bytes = test::random_bytes(rng, 256);
  cp.apply_write(crs.packet_block(2, 1), bytes.data(), cs.block_ptrs(), 256);
  EXPECT_TRUE(stripe_consistent(crs, cs.block_ptrs(), 256));

  const XorbasLRCCode xb(10, 2, 4, 8);
  Stripe xs(xb, 256);
  test::fill_and_encode(xb, xs, 536);
  const UpdatePlanner xp(xb);
  // Data block 0's coefficients toward the four globals are all alpha^0=1,
  // which cancel in the global-local parity (GF(2) sum of four ones), so
  // it touches 5 parities; block 1's powers alpha^1..alpha^4 do not
  // cancel, so it cascades into the global-local parity too: 6.
  EXPECT_EQ(xp.affected_parities(0).size(), 5u);
  EXPECT_EQ(xp.affected_parities(1).size(), 6u);
  xp.apply_write(1, bytes.data(), xs.block_ptrs(), 256);
  EXPECT_TRUE(stripe_consistent(xb, xs.block_ptrs(), 256));
}

TEST(UpdatePlanner, RefusesBlocksThatSplitASymbol) {
  const SDCode code(6, 4, 2, 2, 16);
  const UpdatePlanner planner(code);
  Stripe stripe(code, 4098);
  const auto before = test::fill_and_encode(code, stripe, 7);
  const std::vector<std::uint8_t> new_data(4098, 0x5A);
  EXPECT_THROW(
      planner.apply_write(0, new_data.data(), stripe.block_ptrs(), 4097),
      std::invalid_argument);
  EXPECT_TRUE(stripe.equals(before));
}

}  // namespace
}  // namespace ppm
