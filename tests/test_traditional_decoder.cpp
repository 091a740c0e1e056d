// Traditional whole-matrix decoder: round trips, sequence policies, stats.
#include <gtest/gtest.h>

#include "codes/lrc_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "decode/cost_model.h"
#include "decode/traditional_decoder.h"
#include "test_util.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

TEST(TraditionalDecoder, EncodeProducesZeroSyndrome) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe stripe(code, 1024);
  Rng rng(41);
  stripe.fill_data(rng);
  const TraditionalDecoder dec(code);
  ASSERT_TRUE(dec.encode(stripe.block_ptrs(), stripe.block_bytes()));
  // H * B must vanish on every symbol of every check row.
  const Matrix& h = code.parity_check();
  const gf::Field& f = code.field();
  std::vector<std::uint8_t> syndrome(stripe.block_bytes());
  for (std::size_t row = 0; row < h.rows(); ++row) {
    std::fill(syndrome.begin(), syndrome.end(), 0);
    for (std::size_t b = 0; b < code.total_blocks(); ++b) {
      if (h(row, b) != 0) {
        f.mult_region_xor(syndrome.data(), stripe.block(b), h(row, b),
                          stripe.block_bytes());
      }
    }
    EXPECT_EQ(syndrome, std::vector<std::uint8_t>(stripe.block_bytes(), 0))
        << "check row " << row;
  }
}

TEST(TraditionalDecoder, RoundTripBothSequences) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe stripe(code, 1024);
  const auto snap = test::fill_and_encode(code, stripe, 42);
  ScenarioGenerator gen(43);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const TraditionalDecoder dec(code);
  for (const auto policy :
       {SequencePolicy::kNormal, SequencePolicy::kMatrixFirst,
        SequencePolicy::kAuto}) {
    std::memcpy(stripe.block(0), snap.data(), snap.size());
    stripe.erase(g.scenario);
    const auto res = dec.decode(g.scenario, stripe.block_ptrs(),
                                stripe.block_bytes(), policy);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(stripe.equals(snap));
  }
}

TEST(TraditionalDecoder, StatsMatchCostModel) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 44);
  ScenarioGenerator gen(45);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const auto costs = analyze_costs(code, g.scenario);
  ASSERT_TRUE(costs.has_value());
  const TraditionalDecoder dec(code);

  stripe.erase(g.scenario);
  const auto normal = dec.decode(g.scenario, stripe.block_ptrs(),
                                 stripe.block_bytes(),
                                 SequencePolicy::kNormal);
  ASSERT_TRUE(normal.has_value());
  EXPECT_EQ(normal->stats.mult_xors, costs->c1);
  EXPECT_EQ(normal->sequence_used, Sequence::kNormal);

  stripe.erase(g.scenario);
  const auto mf = dec.decode(g.scenario, stripe.block_ptrs(),
                             stripe.block_bytes(),
                             SequencePolicy::kMatrixFirst);
  ASSERT_TRUE(mf.has_value());
  EXPECT_EQ(mf->stats.mult_xors, costs->c2);
}

TEST(TraditionalDecoder, AutoPicksCheaperSequence) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 46);
  ScenarioGenerator gen(47);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const auto costs = analyze_costs(code, g.scenario);
  ASSERT_TRUE(costs.has_value());
  stripe.erase(g.scenario);
  const TraditionalDecoder dec(code);
  const auto res = dec.decode(g.scenario, stripe.block_ptrs(),
                              stripe.block_bytes(), SequencePolicy::kAuto);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->stats.mult_xors, std::min(costs->c1, costs->c2));
  EXPECT_EQ(res->sequence_used, costs->c2 < costs->c1
                                    ? Sequence::kMatrixFirst
                                    : Sequence::kNormal);
}

TEST(TraditionalDecoder, UndecodableScenarioReturnsNullopt) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 48);
  const TraditionalDecoder dec(code);
  // Three faults in one row exceed what one row equation + one global
  // equation can solve.
  const FailureScenario sc({0, 1, 2});
  EXPECT_FALSE(
      dec.decode(sc, stripe.block_ptrs(), stripe.block_bytes()).has_value());
}

TEST(TraditionalDecoder, EmptyScenarioIsNoOp) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 49);
  const TraditionalDecoder dec(code);
  const auto res =
      dec.decode(FailureScenario{}, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->stats.mult_xors, 0u);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(TraditionalDecoder, LrcAndRsRoundTrips) {
  {
    const LRCCode code(12, 3, 2, 8);
    Stripe stripe(code, 1024);
    const auto snap = test::fill_and_encode(code, stripe, 50);
    ScenarioGenerator gen(51);
    const auto g = gen.lrc_failures(code, 2, 1);
    stripe.erase(g.scenario);
    const TraditionalDecoder dec(code);
    ASSERT_TRUE(
        dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes()));
    EXPECT_TRUE(stripe.equals(snap));
  }
  {
    const RSCode code(10, 4, 8);
    Stripe stripe(code, 1024);
    const auto snap = test::fill_and_encode(code, stripe, 52);
    ScenarioGenerator gen(53);
    const auto g = gen.rs_failures(code, 4);
    stripe.erase(g.scenario);
    const TraditionalDecoder dec(code);
    ASSERT_TRUE(
        dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes()));
    EXPECT_TRUE(stripe.equals(snap));
  }
}

TEST(TraditionalDecoder, RefusesBlocksThatSplitASymbol) {
  const SDCode code(6, 4, 2, 2, 16);
  Stripe stripe(code, 4098);
  test::fill_and_encode(code, stripe, 50);
  ScenarioGenerator gen(51);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const auto erased = stripe.snapshot();
  const TraditionalDecoder dec(code);
  for (const auto policy :
       {SequencePolicy::kNormal, SequencePolicy::kMatrixFirst,
        SequencePolicy::kAuto}) {
    EXPECT_FALSE(dec.decode(g.scenario, stripe.block_ptrs(), 4097, policy));
    EXPECT_FALSE(dec.encode(stripe.block_ptrs(), 4097, policy));
  }
  EXPECT_TRUE(stripe.equals(erased));
}

}  // namespace
}  // namespace ppm
