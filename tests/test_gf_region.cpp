// Region kernels: every (width × ISA level) family against the per-symbol
// reference, across sizes, alignments and constants, plus the fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "gf/galois_field.h"
#include "test_util.h"

namespace ppm::gf {
namespace {

using test::random_bytes;
using test::reference_mult_xor;

class RegionKernelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, IsaLevel>> {
 protected:
  void SetUp() override {
    // kernels_for caps a request at detect_isa(); running the capped family
    // under this level's name would test it twice and this one never.
    if (isa() > detect_isa()) {
      GTEST_SKIP() << isa_name(isa()) << " kernels unavailable: this CPU"
                   << " (or PPM_FORCE_ISA) caps at " << isa_name(detect_isa());
    }
  }
  const Field& f() const { return field(std::get<0>(GetParam())); }
  IsaLevel isa() const { return std::get<1>(GetParam()); }
};

TEST_P(RegionKernelTest, MatchesReferenceAcrossSizes) {
  Rng rng(11);
  const unsigned sym = f().symbol_bytes();
  for (const std::size_t symbols :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{15},
        std::size_t{16}, std::size_t{17}, std::size_t{64}, std::size_t{333},
        std::size_t{1024}}) {
    const std::size_t bytes = symbols * sym;
    auto src = random_bytes(rng, bytes);
    auto expect = random_bytes(rng, bytes);
    auto actual = expect;
    const Element c =
        (static_cast<Element>(rng.next()) & f().max_element()) | 2;
    reference_mult_xor(f(), expect.data(), src.data(), c, bytes);
    f().mult_region_xor_isa(actual.data(), src.data(), c, bytes, isa());
    EXPECT_EQ(actual, expect) << "symbols=" << symbols << " c=" << c;
  }
}

TEST_P(RegionKernelTest, MatchesReferenceUnaligned) {
  Rng rng(12);
  const unsigned sym = f().symbol_bytes();
  const std::size_t bytes = 257 * sym;
  // Offset both operands off any vector boundary (by whole symbols, since
  // regions are symbol arrays).
  auto src_buf = random_bytes(rng, bytes + 64);
  auto dst_buf = random_bytes(rng, bytes + 64);
  const std::size_t off = sym;  // 1 symbol in: breaks 16/32-byte alignment
  auto expect = dst_buf;
  const Element c = (static_cast<Element>(rng.next()) & f().max_element()) | 2;
  reference_mult_xor(f(), expect.data() + off, src_buf.data() + off, c, bytes);
  f().mult_region_xor_isa(dst_buf.data() + off, src_buf.data() + off, c,
                          bytes, isa());
  EXPECT_EQ(dst_buf, expect);
}

TEST_P(RegionKernelTest, EveryConstantSmallRegion) {
  // For w=8, sweep every constant; wider fields sample.
  Rng rng(13);
  const unsigned sym = f().symbol_bytes();
  const std::size_t bytes = 48 * sym;
  const auto src = random_bytes(rng, bytes);
  const std::size_t sweep = f().w() == 8 ? 256 : 500;
  for (std::size_t i = 0; i < sweep; ++i) {
    const Element c =
        f().w() == 8 ? static_cast<Element>(i)
                     : (static_cast<Element>(rng.next()) & f().max_element());
    auto expect = random_bytes(rng, bytes);
    auto actual = expect;
    reference_mult_xor(f(), expect.data(), src.data(), c, bytes);
    f().mult_region_xor_isa(actual.data(), src.data(), c, bytes, isa());
    ASSERT_EQ(actual, expect) << "c=" << c;
  }
}

TEST_P(RegionKernelTest, EveryTailResidue) {
  // One full 64-byte vector plus every whole-symbol residue of 1..63 bytes,
  // for both kernels of the family: the GFNI kernels run that residue as
  // one masked vector, the others hand it down a level. Guard bytes past
  // the region must survive.
  Rng rng(21);
  const unsigned sym = f().symbol_bytes();
  const RegionKernels& k = kernels_for(f().w(), isa());
  std::vector<std::uint8_t> tables(operand_bytes(f().w()));
  constexpr std::size_t kGuard = 64;
  for (std::size_t tail = sym; tail < 64; tail += sym) {
    const std::size_t bytes = 64 + tail;
    const auto src = random_bytes(rng, bytes + kGuard);
    const Element c =
        (static_cast<Element>(rng.next()) & f().max_element()) | 2;
    f().prepare(c, tables.data());

    auto expect = random_bytes(rng, bytes + kGuard);
    auto actual = expect;
    reference_mult_xor(f(), expect.data(), src.data(), c, bytes);
    k.mult_xor(actual.data(), src.data(), bytes, tables.data());
    EXPECT_EQ(actual, expect) << "mult_xor, tail=" << tail << " c=" << c;

    std::fill(expect.begin(), expect.begin() + bytes, 0);
    reference_mult_xor(f(), expect.data(), src.data(), c, bytes);
    k.mult_over(actual.data(), src.data(), bytes, tables.data());
    EXPECT_EQ(actual, expect) << "mult_over, tail=" << tail << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, RegionKernelTest,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(IsaLevel::kScalar, IsaLevel::kSsse3,
                                         IsaLevel::kAvx2, IsaLevel::kAvx512,
                                         IsaLevel::kGfni)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_" +
             isa_name(std::get<1>(info.param));
    });

class RegionSemanticsTest : public ::testing::TestWithParam<unsigned> {
 protected:
  const Field& f() const { return field(GetParam()); }
};

TEST_P(RegionSemanticsTest, ZeroConstantIsNoOp) {
  Rng rng(14);
  const std::size_t bytes = 128 * f().symbol_bytes();
  const auto src = random_bytes(rng, bytes);
  auto dst = random_bytes(rng, bytes);
  const auto before = dst;
  f().mult_region_xor(dst.data(), src.data(), 0, bytes);
  EXPECT_EQ(dst, before);
}

TEST_P(RegionSemanticsTest, OneConstantIsXor) {
  Rng rng(15);
  const std::size_t bytes = 128 * f().symbol_bytes();
  const auto src = random_bytes(rng, bytes);
  auto dst = random_bytes(rng, bytes);
  auto expect = dst;
  for (std::size_t i = 0; i < bytes; ++i) expect[i] ^= src[i];
  f().mult_region_xor(dst.data(), src.data(), 1, bytes);
  EXPECT_EQ(dst, expect);
}

TEST_P(RegionSemanticsTest, XorTwiceRestoresDestination) {
  Rng rng(16);
  const std::size_t bytes = 96 * f().symbol_bytes();
  const auto src = random_bytes(rng, bytes);
  auto dst = random_bytes(rng, bytes);
  const auto before = dst;
  const Element c = (static_cast<Element>(rng.next()) & f().max_element()) | 2;
  f().mult_region_xor(dst.data(), src.data(), c, bytes);
  EXPECT_NE(dst, before);
  f().mult_region_xor(dst.data(), src.data(), c, bytes);
  EXPECT_EQ(dst, before);  // characteristic 2: adding twice cancels
}

TEST_P(RegionSemanticsTest, MultOverwriteMatchesXorIntoZero) {
  Rng rng(17);
  const std::size_t bytes = 80 * f().symbol_bytes();
  const auto src = random_bytes(rng, bytes);
  const Element c = (static_cast<Element>(rng.next()) & f().max_element()) | 2;
  std::vector<std::uint8_t> a(bytes, 0);
  f().mult_region_xor(a.data(), src.data(), c, bytes);
  auto b = random_bytes(rng, bytes);  // stale garbage must be overwritten
  f().mult_region(b.data(), src.data(), c, bytes);
  EXPECT_EQ(a, b);
}

TEST_P(RegionSemanticsTest, MultOverwriteZeroConstantClears) {
  Rng rng(18);
  const std::size_t bytes = 64 * f().symbol_bytes();
  const auto src = random_bytes(rng, bytes);
  auto dst = random_bytes(rng, bytes);
  f().mult_region(dst.data(), src.data(), 0, bytes);
  EXPECT_EQ(dst, std::vector<std::uint8_t>(bytes, 0));
}

TEST_P(RegionSemanticsTest, LinearityOverRegions) {
  // c*(x ^ y) == c*x ^ c*y applied to regions.
  Rng rng(19);
  const std::size_t bytes = 64 * f().symbol_bytes();
  const auto x = random_bytes(rng, bytes);
  const auto y = random_bytes(rng, bytes);
  const Element c = (static_cast<Element>(rng.next()) & f().max_element()) | 2;
  std::vector<std::uint8_t> xy(bytes);
  for (std::size_t i = 0; i < bytes; ++i) xy[i] = x[i] ^ y[i];
  std::vector<std::uint8_t> lhs(bytes, 0);
  f().mult_region_xor(lhs.data(), xy.data(), c, bytes);
  std::vector<std::uint8_t> rhs(bytes, 0);
  f().mult_region_xor(rhs.data(), x.data(), c, bytes);
  f().mult_region_xor(rhs.data(), y.data(), c, bytes);
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, RegionSemanticsTest,
                         ::testing::Values(8u, 16u, 32u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(RegionSizeCheck, SymbolSplittingRegionsThrowUntouched) {
  // A region must hold whole symbols in Release builds too: a masked GFNI
  // tail would otherwise write half a symbol.
  Rng rng(22);
  for (const unsigned w : {16u, 32u}) {
    const Field& f = field(w);
    const std::size_t bytes = 64 * f.symbol_bytes() + 1;
    const auto src = random_bytes(rng, bytes);
    auto dst = random_bytes(rng, bytes);
    const auto before = dst;
    EXPECT_THROW(f.mult_region_xor(dst.data(), src.data(), 7, bytes),
                 std::invalid_argument);
    EXPECT_THROW(f.mult_region(dst.data(), src.data(), 7, bytes),
                 std::invalid_argument);
    EXPECT_THROW(
        f.mult_region_xor_isa(dst.data(), src.data(), 7, bytes, detect_isa()),
        std::invalid_argument);
    EXPECT_EQ(dst, before) << "w=" << w;
  }
}

TEST(XorRegion, MatchesByteWiseXor) {
  Rng rng(20);
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{31},
                                  std::size_t{32}, std::size_t{1000}}) {
    const auto src = random_bytes(rng, bytes);
    auto dst = random_bytes(rng, bytes);
    auto expect = dst;
    for (std::size_t i = 0; i < bytes; ++i) expect[i] ^= src[i];
    xor_region(dst.data(), src.data(), bytes);
    EXPECT_EQ(dst, expect) << "bytes=" << bytes;
  }
}

TEST(KernelDispatch, RequestsAreCappedAtDetectedLevel) {
  // kernels_for must never hand out a higher level than detect_isa().
  const IsaLevel avail = detect_isa();
  for (unsigned w : {8u, 16u, 32u}) {
    const RegionKernels& k = kernels_for(w, IsaLevel::kAvx2);
    EXPECT_NE(k.mult_xor, nullptr);
    EXPECT_NE(k.mult_over, nullptr);
    EXPECT_NE(k.xor_region, nullptr);
    if (avail == IsaLevel::kScalar) {
      EXPECT_EQ(k.mult_xor, kernels_for(w, IsaLevel::kScalar).mult_xor);
    }
  }
  EXPECT_THROW(kernels_for(9, IsaLevel::kScalar), std::invalid_argument);
}

}  // namespace
}  // namespace ppm::gf
