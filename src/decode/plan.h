// Matrix-decode planning and execution.
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
//
// A SubPlan recovers one (sub-)system. A CachedPlan is a whole decode: the
// partitioned shape of §III (the O1 groups, then H_rest) or the
// whole-matrix shape of §II-B, built by one of its two constructors. Every
// decoder runs a CachedPlan, and CachedPlan::execute_sliced is the one
// stripe×slice fan-out that Codec's decode, encode and batch decode share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "decode/scenario.h"
#include "gf/galois_field.h"
#include "matrix/matrix.h"

namespace ppm {

class Codec;
class ThreadPool;
namespace planstore {
class PlanStore;
}  // namespace planstore

enum class Sequence {
  kNormal,       ///< F⁻¹ · (S · BS)
  kMatrixFirst,  ///< (F⁻¹ · S) · BS
};

/// How a plan builder picks between the two calculation sequences.
enum class SequencePolicy {
  kNormal,       ///< always F⁻¹·(S·BS) — what the open-source SD decoder does
  kMatrixFirst,  ///< always (F⁻¹·S)·BS — the generator-matrix method
  kAuto,         ///< pick the cheaper by exact mult_XOR count
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

  /// Cost both sequences would have for this system, without building a
  /// plan (analyze_costs reports both). Returns {normal, matrix_first}.
  static std::optional<std::pair<std::size_t, std::size_t>> sequence_costs(
      const Matrix& h, std::span<const std::size_t> rows,
      std::span<const std::size_t> unknowns,
      std::span<const std::size_t> excluded);

  /// Assemble a SubPlan from explicit parts. The planner builds every plan
  /// through here; verification tooling and tests use it to build plans
  /// with deliberately corrupted internals. Nothing validates the parts
  /// here — that is the verifier's job.
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

/// Cost/concurrency profile of a cached plan — the numbers the hazard
/// analyzer (analyze_hazard/) derives from the plan's dependency DAG.
/// Computed exactly once, when Codec builds the plan (or re-verified on
/// load from the persistent store), and carried with the plan so
/// downstream consumers (`ppm_cli analyze`, schedulers, the store) never
/// recompute the analysis for a plan that already holds it.
struct PlanProfile {
  std::size_t cost = 0;           ///< exact mult_XORs of one execution
  std::size_t work = 0;           ///< Σ unit work over the hazard DAG
  std::size_t critical_path = 0;  ///< heaviest dependency chain (mult_XORs)
  std::size_t max_width = 0;      ///< peak concurrently-runnable units
  std::vector<std::size_t> level_width;  ///< units per DAG level
  bool hazard_free = false;       ///< no violation in the parallel fan-out

  /// Brent's-theorem speedup ceiling: work / critical path.
  double speedup_bound() const {
    return critical_path == 0 ? 1.0
                              : static_cast<double>(work) /
                                    static_cast<double>(critical_path);
  }

  bool operator==(const PlanProfile&) const = default;
};

/// One contiguous byte range of every block region, processed by one
/// task. Produced by plan_slices(); consumed by CachedPlan::execute_sliced
/// and by the hazard analyzer (analyze_hazard/), which proves the ranges
/// disjoint, symbol-aligned and an exact tiling of [0, block_bytes).
struct SliceRange {
  std::size_t offset = 0;  ///< first byte of the slice
  std::size_t bytes = 0;   ///< slice length (multiple of the symbol size)
};

/// Split [0, block_bytes) into at most `threads` contiguous symbol-aligned
/// slices of near-equal size. Fewer slices are returned when there are not
/// enough symbols to go around; zero-length tails are never emitted.
/// `block_bytes` must be a multiple of `symbol_bytes`.
std::vector<SliceRange> plan_slices(std::size_t block_bytes,
                                    unsigned symbol_bytes, unsigned threads);

/// A fully planned decode, reusable across stripes with the same failure
/// scenario. Thread-safe to execute concurrently on distinct stripes or on
/// disjoint slices of one stripe.
class CachedPlan {
 public:
  /// The PPM plan (§III): log table, partition, one matrix-first sub-plan
  /// per independent group, then H_rest — its group-recovered blocks
  /// counted as survivors — with the sequence `rest` picks (kAuto: the
  /// cheaper of C3 and C4). std::nullopt when the scenario is undecodable.
  static std::optional<CachedPlan> partitioned(
      const Matrix& h, const FailureScenario& scenario,
      SequencePolicy rest = SequencePolicy::kAuto);

  /// The traditional plan (§II-B): every row of `h` in one sub-plan (the
  /// rest(); there are no groups) with the sequence `policy` picks.
  /// std::nullopt when the scenario is undecodable.
  static std::optional<CachedPlan> whole_matrix(const Matrix& h,
                                                const FailureScenario& scenario,
                                                SequencePolicy policy);

  /// Assemble a plan from explicit sub-plans, bypassing the planner. For
  /// the plan store and for verification tooling and tests (verify_plan/
  /// exercises hand-corrupted plans); nothing is validated here.
  static CachedPlan assemble(std::vector<SubPlan> groups,
                             std::optional<SubPlan> rest);

  std::size_t p() const { return group_plans_.size(); }
  std::size_t cost() const;

  /// The hazard/cost profile computed when Codec built this plan or the
  /// store re-verified it on load. Other plans carry a default (all-zero,
  /// !hazard_free) profile — nothing is analyzed there.
  const PlanProfile& profile() const { return profile_; }

  /// Execute on one stripe (or on one slice of it: every block region
  /// shifted to the same offset): groups, then the rest plan, serially in
  /// the calling thread.
  void execute(std::uint8_t* const* blocks, std::size_t block_bytes,
               DecodeStats* stats = nullptr) const;

  /// The one fan-out: run this plan on every stripe, each cut into
  /// `slices`, one task per stripe×slice. Each task runs the whole plan
  /// on its slice one SubPlan::kTileBytes tile at a time, so the survivor
  /// tiles the groups read are still in L2 when H_rest reads them. A
  /// single task, or a null `pool`, runs in the caller. Returns the stats
  /// of serial execution, counting each stripe once. Throws
  /// std::invalid_argument, before any task is queued, when `block_bytes`
  /// is not a multiple of the field's symbol size.
  DecodeStats execute_sliced(std::span<std::uint8_t* const* const> stripes,
                             std::size_t block_bytes,
                             std::span<const SliceRange> slices,
                             ThreadPool* pool) const;

  /// The independent-group sub-plans, in execution order.
  std::span<const SubPlan> groups() const { return group_plans_; }

  /// The H_rest sub-plan, executed after every group (its survivors may
  /// therefore include group-recovered blocks).
  const std::optional<SubPlan>& rest() const { return rest_plan_; }

 private:
  friend class Codec;                 // sets profile_ after analysis
  friend class planstore::PlanStore;  // sets profile_ after re-verification
  std::vector<SubPlan> group_plans_;
  std::optional<SubPlan> rest_plan_;
  std::size_t blocks_ = 0;     // 1 + the highest block id any sub-plan touches
  unsigned symbol_bytes_ = 1;  // the sub-plans' field symbol size
  PlanProfile profile_;
};

}  // namespace ppm
