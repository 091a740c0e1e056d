#include "decode/xor_schedule.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/aligned_buffer.h"
#include "gf/galois_field.h"

namespace ppm {

namespace {

// Row of a binary matrix as a bitset over columns.
using BitRow = std::vector<std::uint64_t>;

BitRow row_bits(const Matrix& g, std::size_t row) {
  BitRow bits((g.cols() + 63) / 64, 0);
  for (std::size_t c = 0; c < g.cols(); ++c) {
    if (g(row, c) != 0) bits[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  return bits;
}

std::size_t popcount(const BitRow& bits) {
  std::size_t n = 0;
  for (const std::uint64_t w : bits) n += static_cast<std::size_t>(
      __builtin_popcountll(w));
  return n;
}

std::size_t diff_count(const BitRow& a, const BitRow& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    n += static_cast<std::size_t>(__builtin_popcountll(a[i] ^ b[i]));
  }
  return n;
}

}  // namespace

std::optional<XorSchedule> plan_xor_schedule(const Matrix& g) {
  for (const gf::Element v : g.data()) {
    if (v > 1) return std::nullopt;  // not a binary system
  }
  const std::size_t rows = g.rows();

  std::vector<BitRow> bits;
  bits.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) bits.push_back(row_bits(g, r));

  XorSchedule schedule;
  for (std::size_t r = 0; r < rows; ++r) schedule.naive_ops += popcount(bits[r]);

  // Greedy target order: lightest rows first, so heavy rows have more
  // potential bases available when their turn comes.
  std::vector<std::size_t> order(rows);
  for (std::size_t r = 0; r < rows; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return popcount(bits[a]) < popcount(bits[b]);
  });

  std::vector<std::size_t> computed;  // rows already emitted, in order
  for (const std::size_t target : order) {
    const std::size_t direct = popcount(bits[target]);
    // Best base: previously computed row minimizing the difference.
    std::optional<std::size_t> base;
    std::size_t best = direct;  // cost without a base: `direct` ops
    for (const std::size_t prior : computed) {
      const std::size_t d = diff_count(bits[target], bits[prior]);
      if (d + 1 < best) {  // copy base + d fix-ups
        best = d + 1;
        base = prior;
      }
    }
    if (base.has_value()) {
      schedule.ops.push_back({true, *base, target, true});
      for (std::size_t c = 0; c < g.cols(); ++c) {
        const bool in_t = g(target, c) != 0;
        const bool in_b = g(*base, c) != 0;
        if (in_t != in_b) schedule.ops.push_back({false, c, target, false});
      }
    } else {
      bool first = true;
      for (std::size_t c = 0; c < g.cols(); ++c) {
        if (g(target, c) != 0) {
          schedule.ops.push_back({false, c, target, first});
          first = false;
        }
      }
      if (first) {
        // All-zero row: materialize a zero target with a self-overwrite
        // marker handled by the executor. The 2-op fix-up counts toward
        // cost() but NOT naive_ops — naive_ops stays the pure nonzero
        // count u(G) so saving() always measures against the cost-model
        // floor of the matrix itself.
        schedule.ops.push_back({false, 0, target, true});
        schedule.ops.push_back({false, 0, target, false});
      }
    }
    computed.push_back(target);
  }
  return schedule;
}

std::vector<TargetSpan> target_spans(const XorSchedule& schedule,
                                     std::size_t rows,
                                     std::vector<std::size_t>* out_of_range,
                                     std::vector<std::size_t>* fragmented) {
  std::vector<TargetSpan> spans(rows);
  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    const std::size_t t = schedule.ops[i].target;
    if (t >= rows) {
      if (out_of_range != nullptr) out_of_range->push_back(i);
      continue;
    }
    if (spans[t].first_op == kNoOp) spans[t].first_op = i;
    spans[t].last_op = i;
  }
  if (fragmented != nullptr) {
    // A span is a unit only if every op inside it writes that register;
    // a foreign op inside [first, last] means the "span" covers work it
    // does not own. Registers are few and spans short, so the quadratic
    // scan is fine on the verification path.
    for (std::size_t t = 0; t < rows; ++t) {
      if (spans[t].first_op == kNoOp) continue;
      for (std::size_t i = spans[t].first_op; i <= spans[t].last_op; ++i) {
        if (schedule.ops[i].target != t) {
          fragmented->push_back(t);
          break;
        }
      }
    }
  }
  return spans;
}

void execute_xor_schedule(const XorSchedule& schedule,
                          std::uint8_t* const* sources,
                          std::uint8_t* const* targets, std::size_t bytes) {
  for (const XorOp& op : schedule.ops) {
    const std::uint8_t* src =
        op.from_output ? targets[op.source] : sources[op.source];
    if (op.overwrite) {
      std::memcpy(targets[op.target], src, bytes);
    } else {
      gf::xor_region(targets[op.target], src, bytes);
    }
  }
}

void execute_xor_schedule(const XorSchedule& schedule, std::size_t rows,
                          std::uint8_t* const* sources,
                          std::uint8_t* const* targets, std::size_t bytes) {
  if (schedule.temps == 0) {
    execute_xor_schedule(schedule, sources, targets, bytes);
    return;
  }
  // Extend the register file with scratch regions for the temporaries;
  // their first use is an overwrite, so skip the zero-fill.
  std::vector<AlignedBuffer> scratch;
  scratch.reserve(schedule.temps);
  std::vector<std::uint8_t*> regs(rows + schedule.temps);
  for (std::size_t r = 0; r < rows; ++r) regs[r] = targets[r];
  for (std::size_t t = 0; t < schedule.temps; ++t) {
    scratch.push_back(AlignedBuffer::uninitialized(bytes));
    regs[rows + t] = scratch.back().data();
  }
  execute_xor_schedule(schedule, sources, regs.data(), bytes);
}

}  // namespace ppm
