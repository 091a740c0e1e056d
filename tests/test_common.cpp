// Common substrate: aligned buffers, PRNG, CPU detection, timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/timer.h"

namespace ppm {
namespace {

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  for (const std::size_t size : {1u, 63u, 64u, 65u, 4096u, 100000u}) {
    AlignedBuffer buf(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                  AlignedBuffer::kAlignment,
              0u);
    EXPECT_EQ(buf.size(), size);
    for (std::size_t i = 0; i < size; ++i) EXPECT_EQ(buf.data()[i], 0u);
  }
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer zero(0);
  EXPECT_TRUE(zero.empty());
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(128);
  a.data()[0] = 42;
  const std::uint8_t* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.data()[0], 42u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  AlignedBuffer c(64);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
}


TEST(AlignedBuffer, UninitializedAllocatesAligned) {
  AlignedBuffer buf = AlignedBuffer::uninitialized(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                AlignedBuffer::kAlignment,
            0u);
  // Contents are unspecified but must be writable end to end.
  std::memset(buf.data(), 0xAB, buf.size());
  EXPECT_EQ(buf.data()[999], 0xABu);
  EXPECT_TRUE(AlignedBuffer::uninitialized(0).empty());
}

TEST(AlignedBuffer, ClearZeroes) {
  AlignedBuffer buf(256);
  buf.data()[7] = 9;
  buf.clear();
  EXPECT_EQ(buf.data()[7], 0u);
}

TEST(AlignedBuffer, SpanCoversBuffer) {
  AlignedBuffer buf(100);
  EXPECT_EQ(buf.span().size(), 100u);
  EXPECT_EQ(buf.span().data(), buf.data());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(7), 7u);
  }
  // Every residue shows up over a reasonable sample.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, FillCoversWholeRegionIncludingTail) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(37, 0);  // odd size: exercises the tail
  rng.fill(buf.data(), buf.size());
  int nonzero = 0;
  for (const std::uint8_t b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 20);  // all-zero tail would show here
}

TEST(Cpu, DetectIsStableAndNamed) {
  const IsaLevel a = detect_isa();
  EXPECT_EQ(a, detect_isa());
  EXPECT_NE(isa_name(a), nullptr);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(Cpu, IsaNamesDistinct) {
  std::set<std::string> names;
  for (const IsaLevel l : {IsaLevel::kScalar, IsaLevel::kSsse3,
                           IsaLevel::kAvx2, IsaLevel::kAvx512,
                           IsaLevel::kGfni}) {
    names.insert(isa_name(l));
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_STREQ(isa_name(IsaLevel::kGfni), "gfni");
}

TEST(Timer, MonotoneAndResettable) {
  Timer t;
  const double a = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double b = t.seconds();
  EXPECT_GE(b, a);
  EXPECT_GT(b, 0.0);
  EXPECT_GE(t.nanos(), 1000000);
  t.reset();
  EXPECT_LT(t.seconds(), b);
}

}  // namespace
}  // namespace ppm
