// Shared helpers for the PPM test suite.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ppm.h"

namespace ppm::test {

/// Slow, obviously-correct reference for one region mult_XOR: per-symbol
/// field multiply + XOR. Kernels of every ISA level are checked against it.
inline void reference_mult_xor(const gf::Field& f, std::uint8_t* dst,
                               const std::uint8_t* src, gf::Element c,
                               std::size_t bytes) {
  const unsigned sym = f.symbol_bytes();
  for (std::size_t i = 0; i < bytes; i += sym) {
    gf::Element s = 0;
    gf::Element d = 0;
    std::memcpy(&s, src + i, sym);
    std::memcpy(&d, dst + i, sym);
    d ^= f.mul(c, s);
    std::memcpy(dst + i, &d, sym);
  }
}

/// Random bytes helper.
inline std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v.data(), n);
  return v;
}

/// Encode a freshly filled stripe with the traditional decoder and return
/// the reference snapshot.
inline std::vector<std::uint8_t> fill_and_encode(const ErasureCode& code,
                                                 Stripe& stripe,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  stripe.fill_data(rng);
  TraditionalDecoder trad(code);
  const auto enc = trad.encode(stripe.block_ptrs(), stripe.block_bytes());
  if (!enc.has_value()) throw std::runtime_error("reference encode failed");
  return stripe.snapshot();
}

/// Scratch directory unique to this process and instance, created empty
/// and removed on scope exit — so tests running in parallel processes
/// never share one. A test that needs a missing directory uses a subpath.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("ppm_" + tag + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(reinterpret_cast<std::uintptr_t>(this)))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

inline std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Write `bytes` to `p`, replacing it. Throws std::runtime_error when the
/// file cannot be opened or fully written.
inline void write_file(const std::filesystem::path& p,
                       const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();
  if (!out) throw std::runtime_error("write_file: cannot write " + p.string());
}

/// Apply `edit` to the payload of the sealed record at `p` and seal it
/// again as `version` with a correct CRC, so the record still passes the
/// seal and only a store's own re-proof can catch the edit.
inline void reseal(const std::filesystem::path& p, std::uint64_t version,
                   const std::function<void(std::string& payload)>& edit) {
  const std::string raw = read_file(p);
  std::string payload = raw.substr(raw.find('\n') + 1);
  edit(payload);
  write_file(p, seal(raw.substr(0, raw.find(' ')), version, payload));
}

}  // namespace ppm::test
