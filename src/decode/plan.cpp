#include "decode/plan.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "matrix/solve.h"

namespace ppm {

namespace {

// Shared front half of planning: restrict h to `rows`, split columns into
// F (unknowns) and S (survivors = nonzero columns not excluded), select an
// invertible row subset and invert. Returns false when unsolvable.
struct Prepared {
  std::vector<std::size_t> survivors;
  std::vector<std::size_t> h_rows;  // selected rows, as indices into h
  Matrix finv;
  Matrix s_used;
};

std::optional<Prepared> prepare(const Matrix& h,
                                std::span<const std::size_t> rows,
                                std::span<const std::size_t> unknowns,
                                std::span<const std::size_t> excluded) {
  const Matrix sub = h.select_rows(rows);

  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < sub.cols(); ++c) {
    if (std::binary_search(excluded.begin(), excluded.end(), c)) continue;
    if (!sub.column_is_zero(c)) survivors.push_back(c);
  }

  const Matrix f_tall = sub.select_columns(unknowns);
  const auto rowsel = independent_rows(f_tall);
  if (!rowsel.has_value()) return std::nullopt;

  const Matrix f_square = f_tall.select_rows(*rowsel);
  auto finv = f_square.inverse();
  if (!finv.has_value()) return std::nullopt;  // unreachable after rowsel

  std::vector<std::size_t> h_rows(rowsel->size());
  for (std::size_t i = 0; i < rowsel->size(); ++i) {
    h_rows[i] = rows[(*rowsel)[i]];
  }

  Matrix s_used = sub.select_columns(survivors).select_rows(*rowsel);
  return Prepared{std::move(survivors), std::move(h_rows), std::move(*finv),
                  std::move(s_used)};
}

}  // namespace

std::optional<SubPlan> SubPlan::make(const Matrix& h,
                                     std::span<const std::size_t> rows,
                                     std::span<const std::size_t> unknowns,
                                     std::span<const std::size_t> excluded,
                                     Sequence seq) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;

  SubPlan plan(h.field(), seq);
  plan.unknowns_.assign(unknowns.begin(), unknowns.end());
  plan.survivors_ = std::move(prep->survivors);
  plan.rows_ = std::move(prep->h_rows);
  if (seq == Sequence::kNormal) {
    plan.cost_ = prep->finv.nonzeros() + prep->s_used.nonzeros();
    plan.finv_ = std::move(prep->finv);
    plan.s_ = std::move(prep->s_used);
  } else {
    plan.finv_ = prep->finv * prep->s_used;  // G
    plan.cost_ = plan.finv_.nonzeros();
  }
  // Distinct survivor blocks actually read: columns of the applied matrix
  // (S for normal, G for matrix-first) with at least one nonzero.
  const Matrix& applied = seq == Sequence::kNormal ? plan.s_ : plan.finv_;
  for (std::size_t c = 0; c < applied.cols(); ++c) {
    plan.source_blocks_ += !applied.column_is_zero(c);
  }
  plan.prepare_operands();
  return plan;
}

std::optional<std::pair<std::size_t, std::size_t>> SubPlan::sequence_costs(
    const Matrix& h, std::span<const std::size_t> rows,
    std::span<const std::size_t> unknowns,
    std::span<const std::size_t> excluded) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;
  const std::size_t normal = prep->finv.nonzeros() + prep->s_used.nonzeros();
  const std::size_t mf = (prep->finv * prep->s_used).nonzeros();
  return std::make_pair(normal, mf);
}

SubPlan SubPlan::from_parts(const gf::Field& f, Sequence seq,
                            std::vector<std::size_t> unknowns,
                            std::vector<std::size_t> survivors,
                            std::vector<std::size_t> check_rows, Matrix finv,
                            Matrix s, std::size_t cost,
                            std::size_t source_blocks) {
  SubPlan plan(f, seq);
  plan.unknowns_ = std::move(unknowns);
  plan.survivors_ = std::move(survivors);
  plan.rows_ = std::move(check_rows);
  plan.finv_ = std::move(finv);
  plan.s_ = std::move(s);
  plan.cost_ = cost;
  plan.source_blocks_ = source_blocks;
  plan.prepare_operands();
  return plan;
}

SubPlan::Terms SubPlan::prepare_terms(const Matrix& m) {
  const gf::Field& f = m.field();
  const bool owned = f.all_tables() == nullptr;
  const std::size_t stride = gf::operand_bytes(f.w());
  const std::size_t nonzeros = m.nonzeros();
  Terms t;
  t.row_end.reserve(m.rows());
  t.term.reserve(nonzeros);
  if (owned) t.tables.resize(nonzeros * stride);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const gf::Element c = m(i, j);
      if (c == 0) continue;
      const std::size_t at = (owned ? t.term.size() : c) * stride;
      if (owned) f.prepare(c, t.tables.data() + at);
      t.term.push_back({static_cast<std::uint32_t>(j), c,
                        static_cast<std::uint32_t>(at)});
    }
    t.row_end.push_back(t.term.size());
  }
  return t;
}

void SubPlan::prepare_operands() {
  finv_terms_ = prepare_terms(finv_);
  s_terms_ = prepare_terms(s_);
}

void SubPlan::execute(std::uint8_t* const* blocks, std::size_t block_bytes,
                      DecodeStats* stats) const {
  const gf::Field& f = finv_.field();
  if (block_bytes % f.symbol_bytes() != 0) {
    throw std::invalid_argument("SubPlan::execute: " +
                                std::to_string(block_bytes) +
                                "-byte blocks split a symbol");
  }
  const gf::RegionKernels& k = gf::kernels_for(f.w(), detect_isa());
  DecodeStats local;

  // Apply one matrix row to one tile: dst = Σ_j M(row, j) * src_j[off..],
  // using the overwrite kernel for the first term to skip a zeroing pass.
  const std::uint8_t* const all_tables = f.all_tables();
  const auto apply_row = [&](const Terms& t, std::size_t row,
                             std::uint8_t* const* srcs, std::size_t off,
                             std::uint8_t* dst, std::size_t len) {
    const std::uint8_t* tables =
        t.tables.empty() ? all_tables : t.tables.data();
    const std::size_t begin = row == 0 ? 0 : t.row_end[row - 1];
    if (begin == t.row_end[row]) std::memset(dst, 0, len);  // all-zero row
    for (std::size_t i = begin; i < t.row_end[row]; ++i) {
      const std::uint8_t* src = srcs[t.term[i].col] + off;
      if (t.term[i].c != 1) {
        (i == begin ? k.mult_over : k.mult_xor)(dst, src, len,
                                                tables + t.term[i].at);
      } else if (i == begin) {
        std::memcpy(dst, src, len);
      } else {
        k.xor_region(dst, src, len);
      }
    }
  };

  // Gather survivor region pointers in column order.
  std::vector<std::uint8_t*> surv(survivors_.size());
  for (std::size_t j = 0; j < survivors_.size(); ++j) {
    surv[j] = blocks[survivors_[j]];
  }

  static_assert(kTileBytes % 4 == 0, "tiles must hold whole symbols");
  if (seq_ == Sequence::kMatrixFirst) {
    // BF = G · BS directly into the unknown blocks.
    for (std::size_t off = 0; off < block_bytes; off += kTileBytes) {
      const std::size_t len = std::min(kTileBytes, block_bytes - off);
      for (std::size_t i = 0; i < unknowns_.size(); ++i) {
        apply_row(finv_terms_, i, surv.data(), off, blocks[unknowns_[i]] + off,
                  len);
      }
    }
    local.mult_xors = finv_.nonzeros();
  } else {
    // tmp = S · BS into scratch, then BF = F⁻¹ · tmp, per tile. The
    // scratch covers one tile per unknown (reused across tiles) and needs
    // no zero-fill: apply_row's first term uses the overwrite kernel.
    const std::size_t n = unknowns_.size();
    const std::size_t tile = std::min(kTileBytes, block_bytes);
    AlignedBuffer scratch = AlignedBuffer::uninitialized(n * tile);
    std::vector<std::uint8_t*> tmp(n);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = scratch.data() + i * tile;
    }
    for (std::size_t off = 0; off < block_bytes; off += kTileBytes) {
      const std::size_t len = std::min(kTileBytes, block_bytes - off);
      for (std::size_t i = 0; i < n; ++i) {
        apply_row(s_terms_, i, surv.data(), off, tmp[i], len);
      }
      for (std::size_t i = 0; i < n; ++i) {
        apply_row(finv_terms_, i, tmp.data(), 0, blocks[unknowns_[i]] + off,
                  len);
      }
    }
    local.mult_xors = finv_.nonzeros() + s_.nonzeros();
  }
  local.bytes_touched = local.mult_xors * block_bytes;

  if (stats != nullptr) {
    stats->mult_xors += local.mult_xors;
    stats->bytes_touched += local.bytes_touched;
    stats->blocks_read += source_blocks_;
  }
}

}  // namespace ppm
