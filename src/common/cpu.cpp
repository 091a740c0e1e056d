#include "common/cpu.h"

#include <cstdlib>
#include <cstring>
#include <thread>

namespace ppm {

namespace {

IsaLevel detect_raw() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw")) {
    return __builtin_cpu_supports("gfni") ? IsaLevel::kGfni
                                          : IsaLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
  if (__builtin_cpu_supports("ssse3")) return IsaLevel::kSsse3;
#endif
  return IsaLevel::kScalar;
}

IsaLevel apply_env_cap(IsaLevel detected) {
  const char* force = std::getenv("PPM_FORCE_ISA");
  if (force == nullptr) return detected;
  IsaLevel cap = detected;
  if (std::strcmp(force, "scalar") == 0) cap = IsaLevel::kScalar;
  if (std::strcmp(force, "ssse3") == 0) cap = IsaLevel::kSsse3;
  if (std::strcmp(force, "avx2") == 0) cap = IsaLevel::kAvx2;
  if (std::strcmp(force, "avx512") == 0) cap = IsaLevel::kAvx512;
  if (std::strcmp(force, "gfni") == 0) cap = IsaLevel::kGfni;
  // Never exceed what the CPU actually supports.
  return cap < detected ? cap : detected;
}

}  // namespace

IsaLevel detect_isa() {
  static const IsaLevel level = apply_env_cap(detect_raw());
  return level;
}

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kSsse3: return "ssse3";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kAvx512: return "avx512";
    case IsaLevel::kGfni: return "gfni";
  }
  return "unknown";
}

unsigned hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace ppm
