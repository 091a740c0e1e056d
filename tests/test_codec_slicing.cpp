// Codec's stripe×slice fan-out: which stripes it slices, that a sliced
// decode, encode or batch decode is byte-identical to the plan's serial
// execute on every code family, and that block sizes splitting a symbol
// are refused before any block is touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "codec/codec.h"
#include "test_util.h"

namespace ppm {
namespace {

/// A block size whose plan work of `cost` ops gives at least `threads`
/// slices, each an odd number of symbols long, so that every inner slice
/// boundary falls off a 64-byte line.
std::size_t sliced_block_bytes(std::size_t cost, unsigned sym,
                               unsigned threads) {
  const std::size_t per_slice = (Codec::kMinSliceWork / (cost * sym) + 1) | 1;
  return per_slice * threads * sym;
}

enum class Call { kDecode, kEncode, kBatch };

/// Runs `call` through `codec` on `count` stripes of random bytes erased
/// for `scenario`, and the cached plan's serial execute on identical
/// copies; expects the same bytes and the same DecodeStats. Returns how
/// many stripes the codec counted as sliced. The stripes need not be
/// codewords: both executors apply the same plan to the same inputs.
std::size_t expect_serial_identity(Codec& codec, Call call,
                                   const FailureScenario& scenario,
                                   std::size_t block, std::size_t count,
                                   std::uint64_t seed) {
  const ErasureCode& code = codec.code();
  const auto plan = codec.plan_for(scenario);
  EXPECT_NE(plan, nullptr);
  if (plan == nullptr) return 0;
  std::vector<std::unique_ptr<Stripe>> sliced;
  std::vector<std::unique_ptr<Stripe>> serial;
  std::vector<std::uint8_t* const*> ptrs;
  DecodeStats want;
  for (std::size_t i = 0; i < count; ++i) {
    for (auto* set : {&sliced, &serial}) {
      set->push_back(std::make_unique<Stripe>(code, block));
      Rng rng(seed + i);
      for (std::size_t b = 0; b < code.total_blocks(); ++b) {
        rng.fill(set->back()->block(b), block);
      }
      set->back()->erase(scenario);
    }
    plan->execute(serial.back()->block_ptrs(), block, &want);
    ptrs.push_back(sliced.back()->block_ptrs());
  }

  const std::size_t before = codec.metrics().stripes_sliced.value();
  DecodeStats got;
  switch (call) {
    case Call::kDecode:
      EXPECT_TRUE(codec.decode(scenario, ptrs[0], block, &got));
      break;
    case Call::kEncode:
      EXPECT_TRUE(codec.encode(ptrs[0], block, &got));
      break;
    case Call::kBatch: {
      const auto result = codec.decode_batch(scenario, ptrs, block);
      EXPECT_TRUE(result.has_value());
      if (result.has_value()) got = result->stats;
      break;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(sliced[i]->equals(serial[i]->snapshot())) << "stripe " << i;
  }
  EXPECT_EQ(got.mult_xors, want.mult_xors);
  EXPECT_EQ(got.bytes_touched, want.bytes_touched);
  EXPECT_EQ(got.blocks_read, want.blocks_read);
  return codec.metrics().stripes_sliced.value() - before;
}

TEST(CodecSlicing, SlicesOnlyStripesWorthAHandOff) {
  const SDCode code(8, 16, 2, 2, 8);
  ScenarioGenerator gen(126);
  const auto sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
  const auto decode_with = [&](unsigned threads, std::size_t block) {
    Codec codec(code, Codec::Options{.threads = threads});
    Stripe stripe(code, block);
    const auto snap = test::fill_and_encode(code, stripe, 127);
    stripe.erase(sc);
    EXPECT_TRUE(codec.decode(sc, stripe.block_ptrs(), block));
    EXPECT_TRUE(stripe.equals(snap));
    return codec.metrics().stripes_sliced.value();
  };
  EXPECT_EQ(decode_with(4, 64 << 10), 1u);
  EXPECT_EQ(decode_with(1, 64 << 10), 0u);  // no pool to hand off to
  EXPECT_EQ(decode_with(4, 512), 0u);       // too little work per slice

  // Zero-length blocks stay a no-op that still counts the plan's ops.
  Codec codec(code, Codec::Options{.threads = 4});
  Stripe stripe(code, 64);
  const auto snap = test::fill_and_encode(code, stripe, 128);
  DecodeStats stats;
  EXPECT_TRUE(codec.decode(sc, stripe.block_ptrs(), 0, &stats));
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(stats.mult_xors, codec.plan_for(sc)->cost());
  EXPECT_EQ(stats.bytes_touched, 0u);
  EXPECT_EQ(codec.metrics().stripes_sliced.value(), 0u);
}

TEST(CodecSlicing, ByteIdenticalToSerialAcrossEveryFamily) {
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
  codes.push_back(std::make_unique<SDCode>(8, 8, 2, 2, 16));
  codes.push_back(std::make_unique<SDCode>(6, 4, 2, 1, 32));
  for (const auto& code : codes) {
    SCOPED_TRACE(code->name());
    ScenarioGenerator gen(9);
    const auto sc = gen.disk_failures(*code, 2).scenario;
    const auto encoding = FailureScenario::encoding_of(*code);
    for (const unsigned threads : {2u, 3u, 4u}) {
      SCOPED_TRACE(threads);
      Codec codec(*code, Codec::Options{.threads = threads});
      const auto decode_plan = codec.plan_for(sc);
      const auto encode_plan = codec.plan_for(encoding);
      ASSERT_NE(decode_plan, nullptr);
      ASSERT_NE(encode_plan, nullptr);
      const std::size_t block = sliced_block_bytes(
          std::min(decode_plan->cost(), encode_plan->cost()),
          code->field().symbol_bytes(), threads);
      EXPECT_EQ(expect_serial_identity(codec, Call::kDecode, sc, block, 1, 10),
                1u);
      EXPECT_EQ(
          expect_serial_identity(codec, Call::kEncode, encoding, block, 1, 20),
          1u);
      // Two stripes share `threads` workers: each is cut into
      // ceil(threads / 2) slices, so two workers leave them whole.
      EXPECT_EQ(expect_serial_identity(codec, Call::kBatch, sc, block, 2, 30),
                threads > 2 ? 2u : 0u);
    }
  }
}

TEST(CodecSlicing, RejectsBlocksThatSplitASymbol) {
  const SDCode code(8, 8, 2, 2, 16);
  ScenarioGenerator gen(140);
  const auto sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
  Stripe stripe(code, 4098);
  const auto reference = test::fill_and_encode(code, stripe, 141);
  stripe.erase(sc);
  const auto erased = stripe.snapshot();
  Codec codec(code, Codec::Options{.threads = 4});
  EXPECT_FALSE(codec.decode(sc, stripe.block_ptrs(), 4097));
  EXPECT_FALSE(codec.encode(stripe.block_ptrs(), 4097));
  EXPECT_FALSE(codec.decode_batch(sc, {stripe.block_ptrs()}, 4097));
  EXPECT_TRUE(stripe.equals(erased));
  EXPECT_EQ(codec.metrics().stripes_decoded.value(), 0u);
  ASSERT_TRUE(codec.decode(sc, stripe.block_ptrs(), 4098));
  EXPECT_TRUE(stripe.equals(reference));
}

}  // namespace
}  // namespace ppm
