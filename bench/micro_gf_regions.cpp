// Micro-benchmark: mult_XOR region throughput per field width, ISA family
// and region size — the primitive whose count the whole paper optimizes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "gf/galois_field.h"

namespace {

using namespace ppm;

void bm_mult_region_xor(benchmark::State& state) {
  const unsigned w = static_cast<unsigned>(state.range(0));
  const auto isa = static_cast<IsaLevel>(state.range(1));
  const std::size_t bytes = static_cast<std::size_t>(state.range(2));
  if (isa > detect_isa()) {
    state.SkipWithError("ISA level not available on this CPU");
    return;
  }
  const gf::Field& f = gf::field(w);
  AlignedBuffer src(bytes);
  AlignedBuffer dst(bytes);
  Rng rng(1);
  rng.fill(src.data(), bytes);
  rng.fill(dst.data(), bytes);
  const gf::Element c = (static_cast<gf::Element>(rng.next()) &
                         f.max_element()) | 2;
  for (auto _ : state) {
    f.mult_region_xor_isa(dst.data(), src.data(), c, bytes, isa);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::string(isa_name(isa)) + " w" + std::to_string(w));
}

// The kernel on tables prepared once, as SubPlan::execute calls it: the
// Element call above pays Field::prepare on every call.
void bm_mult_region_xor_prepared(benchmark::State& state) {
  const unsigned w = static_cast<unsigned>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const gf::Field& f = gf::field(w);
  AlignedBuffer src(bytes);
  AlignedBuffer dst(bytes);
  Rng rng(1);
  rng.fill(src.data(), bytes);
  rng.fill(dst.data(), bytes);
  const gf::Element c = (static_cast<gf::Element>(rng.next()) &
                         f.max_element()) | 2;
  std::vector<std::uint8_t> tables(gf::operand_bytes(w));
  f.prepare(c, tables.data());
  const gf::RegionFn mult_xor = gf::kernels_for(w, detect_isa()).mult_xor;
  for (auto _ : state) {
    mult_xor(dst.data(), src.data(), bytes, tables.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::string(isa_name(detect_isa())) + " w" +
                 std::to_string(w) + " prepared");
}

void bm_xor_region(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  AlignedBuffer src(bytes);
  AlignedBuffer dst(bytes);
  Rng rng(2);
  rng.fill(src.data(), bytes);
  for (auto _ : state) {
    gf::xor_region(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void bm_scalar_mul(benchmark::State& state) {
  const unsigned w = static_cast<unsigned>(state.range(0));
  const gf::Field& f = gf::field(w);
  Rng rng(3);
  gf::Element a = (static_cast<gf::Element>(rng.next()) & f.max_element()) | 1;
  gf::Element b = (static_cast<gf::Element>(rng.next()) & f.max_element()) | 1;
  for (auto _ : state) {
    a = f.mul(a, b) | 1;
    benchmark::DoNotOptimize(a);
  }
}

}  // namespace

BENCHMARK(bm_mult_region_xor)
    ->ArgsProduct({{8, 16, 32},
                   {0, 1, 2, 3, 4},  // scalar, ssse3, avx2, avx512, gfni
                   {4 << 10, 32 << 10, 128 << 10}})
    ->ArgNames({"w", "isa", "bytes"});

BENCHMARK(bm_mult_region_xor_prepared)
    ->ArgsProduct({{8, 16, 32}, {4 << 10, 32 << 10, 128 << 10}})
    ->ArgNames({"w", "bytes"});

BENCHMARK(bm_xor_region)->Arg(4 << 10)->Arg(128 << 10)->ArgName("bytes");

BENCHMARK(bm_scalar_mul)->Arg(8)->Arg(16)->Arg(32)->ArgName("w");
