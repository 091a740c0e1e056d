#include "decode/degraded_read.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ppm {

namespace {

// Solve A x = b over the field (A is rows x cols, b length rows); returns
// one particular solution (free variables zero) or nullopt when
// inconsistent. Used to combine check rows into a single recovery equation.
std::optional<std::vector<gf::Element>> solve_particular(
    Matrix a, std::vector<gf::Element> b) {
  const gf::Field& f = a.field();
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::vector<std::size_t> pivot_col;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows && a(pivot, col) == 0) ++pivot;
    if (pivot == rows) continue;
    if (pivot != rank) {
      for (std::size_t j = col; j < cols; ++j) std::swap(a(rank, j), a(pivot, j));
      std::swap(b[rank], b[pivot]);
    }
    const gf::Element scale = f.inv(a(rank, col));
    for (std::size_t j = col; j < cols; ++j) {
      a(rank, j) = f.mul(a(rank, j), scale);
    }
    b[rank] = f.mul(b[rank], scale);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == rank) continue;
      const gf::Element factor = a(r, col);
      if (factor == 0) continue;
      for (std::size_t j = col; j < cols; ++j) {
        a(r, j) ^= f.mul(factor, a(rank, j));
      }
      b[r] ^= f.mul(factor, b[rank]);
    }
    pivot_col.push_back(col);
    ++rank;
  }
  // Inconsistency: a zero row of A with nonzero b.
  for (std::size_t r = rank; r < rows; ++r) {
    if (b[r] != 0) return std::nullopt;
  }
  std::vector<gf::Element> x(cols, 0);
  for (std::size_t i = 0; i < rank; ++i) x[pivot_col[i]] = b[i];
  return x;
}

}  // namespace

std::optional<DegradedReadPlan> DegradedReader::plan(
    std::size_t target, const FailureScenario& unavailable,
    DegradedReadError* error) const {
  const auto fail = [error](DegradedReadError why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!unavailable.contains(target)) {
    return fail(DegradedReadError::kTargetNotUnavailable);
  }
  const Matrix& h = code_->parity_check();
  const gf::Field& f = code_->field();
  const auto faulty = unavailable.faulty();

  // Candidate 1: a single check row touching the target and no other
  // unavailable block — the local-repair shortcut (optimal for LRC locals
  // and SD row parity).
  std::optional<std::size_t> best_row;
  std::size_t best_row_cost = SIZE_MAX;
  for (std::size_t row = 0; row < h.rows(); ++row) {
    if (h(row, target) == 0) continue;
    bool clean = true;
    std::size_t cost = 0;
    for (std::size_t c = 0; c < h.cols(); ++c) {
      if (h(row, c) == 0) continue;
      if (c == target) continue;
      if (unavailable.contains(c)) {
        clean = false;
        break;
      }
      ++cost;
    }
    if (clean && cost < best_row_cost) {
      best_row = row;
      best_row_cost = cost;
    }
  }

  // Candidate 2: a combination y of check rows with yᵀ·H[:,U] = e_target —
  // the general fallback when every single row also touches other
  // unavailable blocks.
  const Matrix f_cols = h.select_columns(faulty);
  // Solve Fᵀ x = e_j for x in GF^{RH}.
  Matrix ft(f, f_cols.cols(), f_cols.rows());
  for (std::size_t i = 0; i < f_cols.rows(); ++i) {
    for (std::size_t j = 0; j < f_cols.cols(); ++j) ft(j, i) = f_cols(i, j);
  }
  std::vector<gf::Element> e(faulty.size(), 0);
  e[unavailable.index_of(target)] = 1;
  const auto combo = solve_particular(std::move(ft), std::move(e));

  // Materialize the cheaper candidate as a 1-row virtual parity check.
  Matrix hrow(f, 1, h.cols());
  if (combo.has_value()) {
    for (std::size_t row = 0; row < h.rows(); ++row) {
      const gf::Element y = (*combo)[row];
      if (y == 0) continue;
      for (std::size_t c = 0; c < h.cols(); ++c) {
        if (h(row, c) != 0) hrow(0, c) ^= f.mul(y, h(row, c));
      }
    }
  }
  std::size_t combo_cost = SIZE_MAX;
  if (combo.has_value() && hrow(0, target) != 0) {
    combo_cost = 0;
    for (std::size_t c = 0; c < h.cols(); ++c) {
      if (c != target && hrow(0, c) != 0) ++combo_cost;
    }
  }

  if (best_row.has_value() && best_row_cost <= combo_cost) {
    for (std::size_t c = 0; c < h.cols(); ++c) hrow(0, c) = h(*best_row, c);
  } else if (combo_cost == SIZE_MAX) {
    // Target not expressible from available blocks.
    return fail(DegradedReadError::kInsufficientSurvivors);
  }

  const std::vector<std::size_t> rows{0};
  const std::vector<std::size_t> unknowns{target};
  auto plan = SubPlan::make(hrow, rows, unknowns, faulty,
                            Sequence::kMatrixFirst);
  if (!plan.has_value()) {
    return fail(DegradedReadError::kInsufficientSurvivors);
  }
  DegradedReadPlan out{std::move(*plan), 0, 0};
  out.cost = out.plan.cost();
  out.survivors = out.plan.survivors().size();
  if (error != nullptr) *error = DegradedReadError::kNone;
  return out;
}

bool DegradedReader::read(std::size_t target,
                          const FailureScenario& unavailable,
                          std::uint8_t* const* blocks,
                          std::size_t block_bytes, DecodeStats* stats,
                          DegradedReadError* error) const {
  if (block_bytes % code_->field().symbol_bytes() != 0) {
    if (error != nullptr) *error = DegradedReadError::kBlockSplitsSymbol;
    return false;
  }
  const auto p = plan(target, unavailable, error);
  if (!p.has_value()) return false;
  p->plan.execute(blocks, block_bytes, stats);
  return true;
}

}  // namespace ppm
