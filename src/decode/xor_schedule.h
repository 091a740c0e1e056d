// XOR scheduling with incremental (difference-based) targets.
//
// For binary decoding matrices — CRS bit matrices, EVENODD/RDP, any
// XOR-only code — the naive schedule issues one XOR per nonzero of G. A
// classic optimization (the bit-matrix scheduling family the paper's
// related work touches via [41]) computes some targets *incrementally*:
// if row j of G differs from an already-computed row i in d positions and
// d + 1 < |row j|, then target j = target i ⊕ (the d differing sources),
// saving |row j| − d − 1 operations. This planner greedily picks, for each
// target, the best previously-computed base row (or none).
//
// The schedule is exact for any matrix over GF(2^w) whose entries are 0/1;
// plan_xor_schedule() rejects non-binary matrices.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "matrix/matrix.h"

namespace ppm {

struct XorOp {
  bool from_output = false;  ///< source is a previously computed register
  std::size_t source = 0;    ///< survivor column index, or register index
  std::size_t target = 0;    ///< output register index
  bool overwrite = false;    ///< first op on the register (copy, not XOR)
};

/// A schedule writes `rows + temps` *registers*: registers [0, rows) are
/// the real target rows of the matrix, registers [rows, rows + temps) are
/// scratch temporaries the optimizer (optimize_xor/) materializes for
/// subexpressions shared across target rows. `from_output` sources index
/// the combined register space. The greedy planner never emits
/// temporaries (temps == 0); every consumer of a schedule with temps must
/// size its register file as rows + temps (the temps-aware executor below
/// allocates the scratch regions itself).
struct XorSchedule {
  std::vector<XorOp> ops;
  std::size_t naive_ops = 0;  ///< u(G): nonzero count of the matrix
  std::size_t temps = 0;      ///< scratch registers beyond the target rows

  std::size_t cost() const { return ops.size(); }
  /// Fractional saving against the naive one-XOR-per-nonzero execution of
  /// the ORIGINAL matrix — optimizer rewrites keep naive_ops pinned to
  /// u(G), so savings always compare to the paper's cost-model floor, not
  /// to whatever schedule the rewrite started from.
  double saving() const {
    return naive_ops == 0
               ? 0.0
               : 1.0 - static_cast<double>(cost()) /
                           static_cast<double>(naive_ops);
  }
};

/// Build an incremental XOR schedule for binary matrix `g` (targets =
/// rows, sources = columns). std::nullopt if any entry exceeds 1.
std::optional<XorSchedule> plan_xor_schedule(const Matrix& g);

/// First/last op index touching one target row — the op-stream span of
/// that target's execution unit. `kNoOp` marks a row with no ops. The
/// hazard analyzer (analyze_hazard/) treats each target's span as one
/// schedulable unit: disjoint spans whose from_output edges respect span
/// order can run concurrently.
inline constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);
struct TargetSpan {
  std::size_t first_op = kNoOp;
  std::size_t last_op = kNoOp;
};

/// Per-target op spans of `schedule` over a `rows`-register system (pass
/// rows + schedule.temps to span the full register file). An op with an
/// out-of-range target is a malformed schedule: it cannot belong to any
/// unit, so it is excluded from the spans and its op index is appended to
/// `out_of_range` when given — callers in the verification path
/// (hazard::analyze_schedule) report each one as a
/// `xor_index_out_of_bounds` Violation rather than letting it vanish.
///
/// `fragmented`, when given, collects every register whose span is not
/// contiguous — some op inside [first_op, last_op] writes a *different*
/// register. A fragmented span is not a unit: treating it as one would
/// let the span silently cover foreign ops, so the hazard analyzer
/// reports each entry as a structured `xor_target_span_fragmented`
/// violation instead of certifying a wrong span.
std::vector<TargetSpan> target_spans(
    const XorSchedule& schedule, std::size_t rows,
    std::vector<std::size_t>* out_of_range = nullptr,
    std::vector<std::size_t>* fragmented = nullptr);

/// Execute: `targets[r]` = XOR of sources per schedule; `sources[c]` are
/// the survivor regions. Regions are `bytes` long. Valid only for
/// schedules without temporaries (the planner's output); a schedule with
/// temps needs the register-file-aware overload below.
void execute_xor_schedule(const XorSchedule& schedule,
                          std::uint8_t* const* sources,
                          std::uint8_t* const* targets, std::size_t bytes);

/// Temps-aware serial execution over a `rows`-target system: allocates
/// `schedule.temps` aligned scratch regions for the temporary registers
/// and runs the op stream over the combined register file. Identical to
/// the 4-argument overload when temps == 0.
void execute_xor_schedule(const XorSchedule& schedule, std::size_t rows,
                          std::uint8_t* const* sources,
                          std::uint8_t* const* targets, std::size_t bytes);

}  // namespace ppm
