// GF(2^32) over the primitive polynomial x^32 + x^22 + x^2 + x + 1
// (0x100400007). Log tables are infeasible at this width, so scalar
// multiplication is carry-less: PCLMULQDQ + polynomial folding where the
// CPU supports it (see gf32_clmul.cpp), a 32-step shift-and-add otherwise.
// The inverse uses Fermat (a^(2^32 - 2)). Region throughput does not
// depend on this path — the region kernels read each constant as tables
// prepared once (Field::prepare).
#include <cstdint>

#include "gf/fields_internal.h"
#include "gf/galois_field.h"

namespace ppm::gf {
namespace {

constexpr std::uint64_t kGroupOrder = 0xFFFFFFFFULL;  // 2^32 - 1

Element mul_shift_add(Element a, Element b) {
  // Carry-less product (63 significant bits)...
  std::uint64_t r = 0;
  std::uint64_t aa = a;
  std::uint32_t bb = b;
  while (bb != 0) {
    r ^= aa * (bb & 1u);  // branch-free conditional XOR
    aa <<= 1;
    bb >>= 1;
  }
  // ...then reduction mod the field polynomial.
  for (int i = 62; i >= 32; --i) {
    if ((r >> i) & 1) r ^= internal::kPoly32 << (i - 32);
  }
  return static_cast<Element>(r);
}

using MulFn = Element (*)(Element, Element);

MulFn select_mul() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul")) return internal::gf32_mul_clmul;
#endif
  return mul_shift_add;
}

class Gf32 final : public Field {
 public:
  Gf32() : mul_(select_mul()) {}

  unsigned w() const override { return 32; }

  Element mul(Element a, Element b) const override { return mul_(a, b); }

  Element inv(Element a) const override {
    // a^(2^32 - 2) = a^-1 for a != 0 (Fermat's little theorem).
    return pow(a, kGroupOrder - 1);
  }

  Element exp2(std::uint64_t e) const override {
    return pow(2, e % kGroupOrder);
  }

 private:
  MulFn mul_;
};

}  // namespace

namespace internal {
const Field& gf32_instance() {
  static const Gf32 instance;
  return instance;
}
}  // namespace internal

}  // namespace ppm::gf
