#include "decode/plan.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "matrix/solve.h"
#include "parallel/task_group.h"

#ifdef PPM_VERIFY_PLANS
#include "analyze_hazard/hazard.h"
#include "verify_plan/violation.h"
#endif

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

// The plan of a prepared system under `seq`. `g`, when given, is the
// matrix-first product F⁻¹·S, already computed.
SubPlan plan_of(Prepared&& prep, std::span<const std::size_t> unknowns,
                Sequence seq, std::optional<Matrix> g = std::nullopt) {
  const gf::Field& f = prep.finv.field();
  Matrix left(f, 0, 0);
  Matrix s(f, 0, 0);
  std::size_t cost = 0;
  if (seq == Sequence::kNormal) {
    cost = prep.finv.nonzeros() + prep.s_used.nonzeros();
    left = std::move(prep.finv);
    s = std::move(prep.s_used);
  } else {
    left = g.has_value() ? std::move(*g) : prep.finv * prep.s_used;
    cost = left.nonzeros();
  }
  // Distinct survivor blocks actually read: columns of the applied matrix
  // (S for normal, G for matrix-first) with at least one nonzero.
  const Matrix& applied = seq == Sequence::kNormal ? s : left;
  std::size_t source_blocks = 0;
  for (std::size_t c = 0; c < applied.cols(); ++c) {
    source_blocks += !applied.column_is_zero(c);
  }
  return SubPlan::from_parts(
      f, seq, std::vector<std::size_t>(unknowns.begin(), unknowns.end()),
      std::move(prep.survivors), std::move(prep.h_rows), std::move(left),
      std::move(s), cost, source_blocks);
}

// The one sequence choice of every plan builder: plan `unknowns` from
// `rows` with the sequence `policy` names. kAuto takes matrix-first only
// when it is strictly cheaper, so a tie keeps the normal sequence. The
// system is prepared once, and kAuto's F⁻¹·S becomes the plan it picks.
std::optional<SubPlan> plan_system(const Matrix& h,
                                   std::span<const std::size_t> rows,
                                   std::span<const std::size_t> unknowns,
                                   std::span<const std::size_t> excluded,
                                   SequencePolicy policy) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;
  if (policy != SequencePolicy::kAuto) {
    return plan_of(std::move(*prep), unknowns,
                   policy == SequencePolicy::kMatrixFirst
                       ? Sequence::kMatrixFirst
                       : Sequence::kNormal);
  }
  Matrix g = prep->finv * prep->s_used;
  if (g.nonzeros() < prep->finv.nonzeros() + prep->s_used.nonzeros()) {
    return plan_of(std::move(*prep), unknowns, Sequence::kMatrixFirst,
                   std::move(g));
  }
  return plan_of(std::move(*prep), unknowns, Sequence::kNormal);
}

}  // namespace

std::optional<SubPlan> SubPlan::make(const Matrix& h,
                                     std::span<const std::size_t> rows,
                                     std::span<const std::size_t> unknowns,
                                     std::span<const std::size_t> excluded,
                                     Sequence seq) {
  auto prep = prepare(h, rows, unknowns, excluded);
  if (!prep.has_value()) return std::nullopt;
  return plan_of(std::move(*prep), unknowns, seq);
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

std::vector<SliceRange> plan_slices(std::size_t block_bytes,
                                    unsigned symbol_bytes, unsigned threads) {
  std::vector<SliceRange> slices;
  const std::size_t symbols = block_bytes / symbol_bytes;
  const std::size_t t =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, symbols));
  const std::size_t per = symbols / t;
  const std::size_t extra = symbols % t;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < t; ++i) {
    const std::size_t len = (per + (i < extra ? 1 : 0)) * symbol_bytes;
    if (len == 0) continue;  // fewer symbols than slices: drop empty tails
    slices.push_back(SliceRange{offset, len});
    offset += len;
  }
  return slices;
}

std::optional<CachedPlan> CachedPlan::partitioned(
    const Matrix& h, const FailureScenario& scenario, SequencePolicy rest) {
  // Step 2 of Algorithm 1: log table + partition.
  const LogTable table = LogTable::build(h, scenario.faulty());
  const Partition part = make_partition(h, table);

  // Step 3: one matrix-first plan per independent sub-matrix; unknowns of
  // other sub-systems are never read.
  std::vector<SubPlan> groups;
  groups.reserve(part.p());
  for (const IndependentGroup& g : part.groups) {
    auto sub = plan_system(h, g.rows, g.faulty_cols, scenario.faulty(),
                           SequencePolicy::kMatrixFirst);
    if (!sub.has_value()) return std::nullopt;
    groups.push_back(std::move(*sub));
  }

  // Step 4: the remaining sub-matrix, group-recovered blocks counted as
  // survivors.
  std::optional<SubPlan> rest_plan;
  if (!part.rest_empty()) {
    rest_plan = plan_system(h, part.rest_rows, part.rest_faulty,
                            part.rest_faulty, rest);
    if (!rest_plan.has_value()) return std::nullopt;
  }
  return assemble(std::move(groups), std::move(rest_plan));
}

std::optional<CachedPlan> CachedPlan::whole_matrix(
    const Matrix& h, const FailureScenario& scenario, SequencePolicy policy) {
  std::vector<std::size_t> all_rows(h.rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  auto whole = plan_system(h, all_rows, scenario.faulty(), scenario.faulty(),
                           policy);
  if (!whole.has_value()) return std::nullopt;
  return assemble({}, std::move(*whole));
}

CachedPlan CachedPlan::assemble(std::vector<SubPlan> groups,
                                std::optional<SubPlan> rest) {
  CachedPlan plan;
  plan.group_plans_ = std::move(groups);
  plan.rest_plan_ = std::move(rest);
  const auto widen = [&plan](const SubPlan& sub) {
    plan.symbol_bytes_ = sub.finv().field().symbol_bytes();
    for (const auto ids : {sub.unknowns(), sub.survivors()}) {
      for (const std::size_t b : ids) {
        plan.blocks_ = std::max(plan.blocks_, b + 1);
      }
    }
  };
  for (const SubPlan& g : plan.group_plans_) widen(g);
  if (plan.rest_plan_.has_value()) widen(*plan.rest_plan_);
  return plan;
}

std::size_t CachedPlan::cost() const {
  std::size_t c = 0;
  for (const SubPlan& p : group_plans_) c += p.cost();
  if (rest_plan_.has_value()) c += rest_plan_->cost();
  return c;
}

void CachedPlan::execute(std::uint8_t* const* blocks, std::size_t block_bytes,
                         DecodeStats* stats) const {
  for (const SubPlan& p : group_plans_) p.execute(blocks, block_bytes, stats);
  if (rest_plan_.has_value()) rest_plan_->execute(blocks, block_bytes, stats);
}

DecodeStats CachedPlan::execute_sliced(
    std::span<std::uint8_t* const* const> stripes, std::size_t block_bytes,
    std::span<const SliceRange> slices, ThreadPool* pool) const {
  if (stripes.empty()) return {};
  if (block_bytes % symbol_bytes_ != 0) {
    throw std::invalid_argument("CachedPlan::execute_sliced: " +
                                std::to_string(block_bytes) +
                                "-byte blocks split a symbol");
  }
#ifdef PPM_VERIFY_PLANS
  // Prove the fan-out race-free before any task starts: on every sub-plan
  // the slices must be symbol-aligned, disjoint and tile the region. Each
  // task runs the plan serially, so no group-level proof is needed.
  const auto prove = [&](const SubPlan& sub) {
    const auto verdict =
        hazard::analyze_slices(sub, slices, block_bytes, symbol_bytes_);
    if (!verdict.ok()) {
      throw std::logic_error("PPM_VERIFY_PLANS: slice fan-out rejected: " +
                             planverify::to_json(verdict.violations));
    }
  };
  for (const SubPlan& g : groups()) prove(g);
  if (rest().has_value()) prove(*rest());
#endif
  const auto run = [&](std::size_t task) {
    std::uint8_t* const* blocks = stripes[task / slices.size()];
    const SliceRange& slice = slices[task % slices.size()];
    // The whole plan runs one tile at a time, so the survivor tiles the
    // groups read are still in L2 when H_rest reads them again: each
    // stripe byte streams from memory once, not once per sub-plan.
    std::vector<std::uint8_t*> view(blocks_);
    for (std::size_t off = 0; off < slice.bytes; off += SubPlan::kTileBytes) {
      for (std::size_t b = 0; b < blocks_; ++b) {
        view[b] = blocks[b] + slice.offset + off;
      }
      execute(view.data(), std::min(SubPlan::kTileBytes, slice.bytes - off));
    }
  };
  const std::size_t tasks = stripes.size() * slices.size();
  if (tasks <= 1 || pool == nullptr) {
    for (std::size_t i = 0; i < tasks; ++i) run(i);
  } else {
    TaskGroup group(*pool);
    for (std::size_t i = 0; i < tasks; ++i) group.add([&run, i] { run(i); });
    group.wait();
  }

  // Slicing splits bytes, not ops: each stripe counts one serial execute,
  // so the paper's C is never multiplied by the slice count.
  std::size_t sources = 0;
  for (const SubPlan& g : groups()) sources += g.source_blocks();
  if (rest().has_value()) sources += rest()->source_blocks();
  DecodeStats stats;
  stats.mult_xors = cost() * stripes.size();
  stats.bytes_touched = stats.mult_xors * block_bytes;
  stats.blocks_read = sources * stripes.size();
  return stats;
}

}  // namespace ppm
