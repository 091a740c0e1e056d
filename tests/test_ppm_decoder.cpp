// PPM decoder: equivalence with the traditional decoder, parallel phases,
// sequence policies, thread handling and refused block sizes.
#include <gtest/gtest.h>

#include <tuple>

#include "codes/lrc_code.h"
#include "codes/pmds_code.h"
#include "codes/sd_code.h"
#include "decode/cost_model.h"
#include "decode/ppm_decoder.h"
#include "test_util.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

TEST(PpmDecoder, Fig3ExampleRecoversAndCostsC4) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 1024);
  const auto snap = test::fill_and_encode(code, stripe, 60);
  const FailureScenario sc({2, 6, 10, 13, 14});
  stripe.erase(sc);
  PpmOptions opts;
  opts.rest_policy = SequencePolicy::kNormal;  // Algorithm 1: C4
  const PpmDecoder dec(code, opts);
  const auto res = dec.decode(sc, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(res->p, 3u);
  EXPECT_EQ(res->stats.mult_xors, 29u);  // C4 from the paper
  EXPECT_EQ(res->lane_of.size(), 3u);
}

TEST(PpmDecoder, AutoRestPolicyRealizesMinC3C4) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 61);
  ScenarioGenerator gen(62);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const auto costs = analyze_costs(code, g.scenario);
  ASSERT_TRUE(costs.has_value());
  stripe.erase(g.scenario);
  const PpmDecoder dec(code);
  const auto res =
      dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->stats.mult_xors, costs->ppm_best());
}

class PpmEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(PpmEquivalence, MatchesTraditionalByteForByte) {
  const auto [w, threads] = GetParam();
  const std::size_t n = 8;
  const std::size_t r = 8;
  const SDCode code(n, r, 2, 2, w);
  Stripe stripe(code, 64 * code.field().symbol_bytes());
  const auto snap = test::fill_and_encode(code, stripe, 63 + w + threads);
  ScenarioGenerator gen(64 + w * threads);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = gen.sd_worst_case(code, 2, 2, 1);
    std::memcpy(stripe.block(0), snap.data(), snap.size());
    stripe.erase(g.scenario);
    PpmOptions opts;
    opts.threads = threads;
    const PpmDecoder dec(code, opts);
    const auto res =
        dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(stripe.equals(snap)) << "trial " << trial;
    EXPECT_EQ(res->threads_used, std::min<unsigned>(threads, res->p));
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndThreads, PpmEquivalence,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PpmDecoder, EncodeMatchesTraditionalEncode) {
  for (unsigned w : {8u, 16u}) {
    const SDCode code(6, 4, 2, 2, w);
    Stripe a(code, 64 * code.field().symbol_bytes());
    Stripe b(code, 64 * code.field().symbol_bytes());
    Rng rng(67);
    a.fill_data(rng);
    std::memcpy(b.block(0), a.block(0), a.stripe_bytes());
    const TraditionalDecoder trad(code);
    ASSERT_TRUE(trad.encode(a.block_ptrs(), a.block_bytes()));
    const PpmDecoder ppm_dec(code);
    const auto res = ppm_dec.encode(b.block_ptrs(), b.block_bytes());
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(b.equals(a.snapshot()));
    // SD encoding parallelizes by stripe row.
    EXPECT_GE(res->p, 1u);
  }
}

TEST(PpmDecoder, UndecodableReturnsNulloptAndLeavesNoPartialWrites) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Stripe stripe(code, 512);
  test::fill_and_encode(code, stripe, 68);
  stripe.erase(FailureScenario({0, 1, 2}));
  const auto before = stripe.snapshot();
  const PpmDecoder dec(code);
  EXPECT_FALSE(dec.decode(FailureScenario({0, 1, 2}), stripe.block_ptrs(),
                          stripe.block_bytes())
                   .has_value());
  // Planning fails before any region op, so the stripe is untouched.
  EXPECT_TRUE(stripe.equals(before));
}

TEST(PpmDecoder, NoPartitionFallsBackToRestOnly) {
  // LRC failure pattern with everything in one local group: no independent
  // groups; PPM must still decode (p may be 0) and match traditional.
  const LRCCode code(8, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 69);
  // Two data failures in group 0 ({0..3}): local row 0 has t=2 with only
  // one matching row; globals have t=2 as well but different... exercise it.
  const FailureScenario sc({0, 1});
  stripe.erase(sc);
  const PpmDecoder dec(code);
  const auto res = dec.decode(sc, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(PpmDecoder, PmdsDecodesIdentically) {
  const PMDSCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 70);
  ScenarioGenerator gen(71);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const PpmDecoder dec(code);
  const auto res =
      dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(res->p, 7u);  // r - z, same as SD
}

TEST(PpmDecoder, StatsIndependentOfThreadCount) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 74);
  ScenarioGenerator gen(75);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  std::size_t ops1 = 0;
  for (const unsigned t : {1u, 2u, 4u}) {
    std::memcpy(stripe.block(0), snap.data(), snap.size());
    stripe.erase(g.scenario);
    PpmOptions opts;
    opts.threads = t;
    const PpmDecoder dec(code, opts);
    const auto res =
        dec.decode(g.scenario, stripe.block_ptrs(), stripe.block_bytes());
    ASSERT_TRUE(res.has_value());
    if (t == 1) {
      ops1 = res->stats.mult_xors;
    } else {
      EXPECT_EQ(res->stats.mult_xors, ops1);
    }
  }
}

TEST(PpmDecoder, RefusesBlocksThatSplitASymbol) {
  // 4097 bytes of 2-byte symbols: every lane layout must refuse before
  // planning, touching no block. A group task that threw instead would
  // escape its lane and end the process.
  const SDCode code(6, 4, 2, 2, 16);
  Stripe stripe(code, 4098);
  test::fill_and_encode(code, stripe, 79);
  ScenarioGenerator gen(80);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  const auto erased = stripe.snapshot();
  PpmOptions one;
  one.threads = 1;
  PpmOptions four;
  four.threads = 4;
  for (const PpmOptions& opts : {one, four}) {
    const PpmDecoder dec(code, opts);
    EXPECT_FALSE(dec.decode(g.scenario, stripe.block_ptrs(), 4097));
    EXPECT_FALSE(dec.encode(stripe.block_ptrs(), 4097));
    EXPECT_TRUE(stripe.equals(erased));
  }
}

}  // namespace
}  // namespace ppm
