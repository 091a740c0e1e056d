// Matrix-decode planning and execution for one (sub-)system.
//
// Planning turns a set of parity-check rows plus a set of unknown blocks
// into the small matrices of §II-B/§III-B; execution then applies those
// matrices to block regions with mult_XOR. The two calculation sequences of
// the paper are supported:
//
//   * Normal      — tmp = S · BS, then BF = F⁻¹ · tmp
//                   (cost C = u(F⁻¹) + u(S));
//   * MatrixFirst — G = F⁻¹ · S once, then BF = G · BS
//                   (cost C = u(F⁻¹ · S)).
//
// Costs are exact mult_XOR counts and are what the cost model and the
// decoders' Auto policies compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/galois_field.h"
#include "matrix/matrix.h"

namespace ppm {

enum class Sequence {
  kNormal,       ///< F⁻¹ · (S · BS)
  kMatrixFirst,  ///< (F⁻¹ · S) · BS
};

/// Cumulative region-operation statistics for a decode.
struct DecodeStats {
  std::size_t mult_xors = 0;      ///< region ops issued (the paper's C)
  std::size_t bytes_touched = 0;  ///< source bytes read by region ops
  std::size_t blocks_read = 0;    ///< distinct survivor blocks read (I/O)
};

/// A planned recovery of `unknowns` from `survivors`.
class SubPlan {
 public:
  Sequence sequence() const { return seq_; }
  std::span<const std::size_t> unknowns() const { return unknowns_; }
  std::span<const std::size_t> survivors() const { return survivors_; }

  /// Rows of the planning-time parity-check matrix H that back this plan
  /// (the square selection whose restriction to `unknowns` is F). Recorded
  /// so verify_plan/ can re-derive F and S independently of the solver.
  std::span<const std::size_t> check_rows() const { return rows_; }

  /// The left matrix applied at execution time: F⁻¹ (f×f) for kNormal,
  /// G = F⁻¹·S (f×|survivors|) for kMatrixFirst.
  const Matrix& finv() const { return finv_; }

  /// The survivor matrix S (f×|survivors|) for kNormal; empty (0×0) for
  /// kMatrixFirst. Exposed for the plan verifier.
  const Matrix& s() const { return s_; }

  /// Exact mult_XOR count of executing this plan.
  std::size_t cost() const { return cost_; }

  /// Distinct survivor blocks the execution reads (the decode's I/O).
  std::size_t source_blocks() const { return source_blocks_; }

  /// Apply the plan: read survivor blocks, write unknown blocks.
  /// `blocks[id]` is the region of block `id`; all regions have
  /// `block_bytes` bytes. Regions run in kTileBytes tiles, so the survivor
  /// tiles one matrix row reads are still cached for the next row.
  /// Thread-safe w.r.t. other SubPlans touching disjoint unknown blocks.
  /// Throws std::invalid_argument, touching no block, when `block_bytes`
  /// is not a multiple of the field's symbol size.
  void execute(std::uint8_t* const* blocks, std::size_t block_bytes,
               DecodeStats* stats = nullptr) const;

  /// Region tile of execute(): small enough that one tile of every
  /// survivor of a dense row (252 of them at SD(16,16)) fits in L2, and a
  /// multiple of every symbol size.
  static constexpr std::size_t kTileBytes = 4 * 1024;

  /// Plan recovery of `unknowns` using parity-check rows `rows` of `h`.
  /// Survivor columns are the nonzero columns of those rows minus every
  /// member of `excluded` (the full faulty set — unknowns of *other*
  /// sub-systems must not be read). All-zero columns never enter the plan
  /// (paper §III-A). Returns std::nullopt when the system is unsolvable
  /// (rank(F) < |unknowns|).
  static std::optional<SubPlan> make(const Matrix& h,
                                     std::span<const std::size_t> rows,
                                     std::span<const std::size_t> unknowns,
                                     std::span<const std::size_t> excluded,
                                     Sequence seq);

  /// Cost both sequences would have for this system; used by Auto policies
  /// without planning twice. Returns {normal, matrix_first}.
  static std::optional<std::pair<std::size_t, std::size_t>> sequence_costs(
      const Matrix& h, std::span<const std::size_t> rows,
      std::span<const std::size_t> unknowns,
      std::span<const std::size_t> excluded);

  /// Assemble a SubPlan from explicit parts, bypassing the planner. For
  /// verification tooling and tests only (verify_plan/ needs plans with
  /// deliberately corrupted internals); nothing validates the parts here —
  /// that is the verifier's job.
  static SubPlan from_parts(const gf::Field& f, Sequence seq,
                            std::vector<std::size_t> unknowns,
                            std::vector<std::size_t> survivors,
                            std::vector<std::size_t> check_rows, Matrix finv,
                            Matrix s, std::size_t cost,
                            std::size_t source_blocks);

 private:
  SubPlan(const gf::Field& f, Sequence seq)
      : seq_(seq), finv_(f, 0, 0), s_(f, 0, 0) {}

  // The nonzeros of an applied matrix in row-major order, each with its
  // coefficient's region-kernel tables prepared once (Field::prepare).
  struct Term {
    std::uint32_t col;
    gf::Element c;
    std::uint32_t at;  // offset of its tables in `tables` or all_tables()
  };
  struct Terms {
    std::vector<std::size_t> row_end;  // row i: [row_end[i-1], row_end[i])
    std::vector<Term> term;
    // gf::operand_bytes(w) per term; empty when the field keeps every
    // constant's tables (gf::Field::all_tables).
    std::vector<std::uint8_t> tables;
  };
  static Terms prepare_terms(const Matrix& m);
  void prepare_operands();

  Sequence seq_;
  std::vector<std::size_t> unknowns_;   // blocks written (f of them)
  std::vector<std::size_t> survivors_;  // blocks read
  std::vector<std::size_t> rows_;       // H rows used (post row-selection)
  // Normal: finv_ (f×f) and s_ (f×|survivors|) both used.
  // MatrixFirst: finv_ holds G = F⁻¹·S (f×|survivors|); s_ is empty.
  Matrix finv_;
  Matrix s_;
  Terms finv_terms_;
  Terms s_terms_;
  std::size_t cost_ = 0;
  std::size_t source_blocks_ = 0;
};

}  // namespace ppm
