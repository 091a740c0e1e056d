#include "codec/update.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/aligned_buffer.h"
#include "gf/galois_field.h"

namespace ppm {

UpdatePlanner::UpdatePlanner(const ErasureCode& code)
    : code_(&code),
      data_ids_(code.data_blocks()),
      parity_ids_(code.parity_blocks().begin(), code.parity_blocks().end()),
      generator_(code.field(), parity_ids_.size(), data_ids_.size()) {
  // The matrix-first encoding matrix *is* the generator: it maps data
  // blocks to parity blocks (H restricted to parity columns, inverted,
  // times H restricted to data columns). Every code in this library has
  // exactly one check row per parity block, so F is square.
  const Matrix& h = code.parity_check();
  if (h.rows() != parity_ids_.size()) {
    throw std::invalid_argument(
        "UpdatePlanner: non-square encoding systems are not supported");
  }
  const auto finv = h.select_columns(parity_ids_).inverse();
  if (!finv.has_value()) {
    throw std::invalid_argument("UpdatePlanner: code is not encodable");
  }
  generator_ = *finv * h.select_columns(data_ids_);
}

std::vector<std::size_t> UpdatePlanner::affected_parities(
    std::size_t data_block) const {
  const auto it =
      std::lower_bound(data_ids_.begin(), data_ids_.end(), data_block);
  if (it == data_ids_.end() || *it != data_block) {
    throw std::invalid_argument("affected_parities: not a data block");
  }
  const std::size_t col = static_cast<std::size_t>(it - data_ids_.begin());
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < parity_ids_.size(); ++p) {
    if (generator_(p, col) != 0) out.push_back(parity_ids_[p]);
  }
  return out;
}

gf::Element UpdatePlanner::coefficient(std::size_t parity_block,
                                       std::size_t data_block) const {
  const auto pit =
      std::lower_bound(parity_ids_.begin(), parity_ids_.end(), parity_block);
  const auto dit =
      std::lower_bound(data_ids_.begin(), data_ids_.end(), data_block);
  if (pit == parity_ids_.end() || *pit != parity_block ||
      dit == data_ids_.end() || *dit != data_block) {
    throw std::invalid_argument("coefficient: bad block ids");
  }
  return generator_(static_cast<std::size_t>(pit - parity_ids_.begin()),
                    static_cast<std::size_t>(dit - data_ids_.begin()));
}

std::size_t UpdatePlanner::apply_write(std::size_t data_block,
                                       const std::uint8_t* new_data,
                                       std::uint8_t* const* blocks,
                                       std::size_t block_bytes) const {
  const gf::Field& f = code_->field();
  if (block_bytes % f.symbol_bytes() != 0) {
    throw std::invalid_argument("apply_write: " + std::to_string(block_bytes) +
                                "-byte blocks split a symbol");
  }
  // delta = old ^ new
  AlignedBuffer delta(block_bytes);
  std::memcpy(delta.data(), blocks[data_block], block_bytes);
  gf::xor_region(delta.data(), new_data, block_bytes);

  std::size_t ops = 0;
  for (const std::size_t parity : affected_parities(data_block)) {
    f.mult_region_xor(blocks[parity], delta.data(),
                      coefficient(parity, data_block), block_bytes);
    ++ops;
  }
  if (blocks[data_block] != new_data) {  // callers may update in place
    std::memcpy(blocks[data_block], new_data, block_bytes);
  }
  return ops;
}

}  // namespace ppm
