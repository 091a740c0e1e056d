// Extension — incremental XOR scheduling on binary decoding matrices
// (CRS / EVENODD / RDP): op-count and wall-time saving of the
// difference-based schedule over the naive one-XOR-per-nonzero execution.
#include <cstdio>
#include <cstring>
#include <numeric>

#include "analyze_hazard/hazard.h"
#include "codes/crs_code.h"
#include "codes/evenodd_code.h"
#include "codes/rdp_code.h"
#include "decode/xor_schedule.h"
#include "matrix/solve.h"
#include "optimize_xor/xoropt.h"
#include "verify_plan/plan_verify.h"

#include "bench_common.h"

using namespace ppm;

namespace {

// Decoding matrix G for a whole-system failure of a binary code.
Matrix decode_matrix(const ErasureCode& code,
                     const std::vector<std::size_t>& faulty) {
  const Matrix& h = code.parity_check();
  const Matrix f = h.select_columns(faulty);
  const auto sel = independent_rows(f);
  if (!sel.has_value()) std::exit(1);
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < code.total_blocks(); ++c) {
    if (!std::binary_search(faulty.begin(), faulty.end(), c)) {
      survivors.push_back(c);
    }
  }
  return *f.select_rows(*sel).inverse() *
         h.select_columns(survivors).select_rows(*sel);
}

void report(const char* label, const ErasureCode& code,
            std::vector<std::size_t> faulty, std::size_t block) {
  std::sort(faulty.begin(), faulty.end());
  const Matrix g = decode_matrix(code, faulty);
  const auto schedule = plan_xor_schedule(g);
  if (!schedule.has_value()) {
    std::printf("%-22s (decode matrix not binary — skipped)\n", label);
    return;
  }
  // Never time a schedule that is not statically proven sound — serially
  // (symbolic replay) and as a parallel program over target units
  // (hazard DAG); the hazard profile also gives the critical path printed
  // below, the floor no parallel executor of this schedule can beat.
  const auto verdict = planverify::verify_xor_schedule(g, *schedule);
  if (!verdict.ok()) {
    std::fprintf(stderr, "%s: schedule failed verification:\n%s\n", label,
                 planverify::to_json(verdict.violations).c_str());
    std::exit(1);
  }
  const auto analysis = hazard::analyze_schedule(*schedule, g);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s: schedule has concurrency hazards:\n%s\n", label,
                 planverify::to_json(analysis.violations).c_str());
    std::exit(1);
  }
  // Superoptimized schedule for the greedy-vs-optimized column; it must
  // carry a passing proof before it is timed (the optimizer's own gate,
  // re-checked here from the bench's side).
  const auto optimized = xoropt::optimize(g, *schedule);
  const auto opt_proof = xoropt::prove(g, optimized.schedule);
  if (!opt_proof.empty()) {
    std::fprintf(stderr, "%s: optimized schedule failed its proof:\n%s\n",
                 label, planverify::to_json(opt_proof).c_str());
    std::exit(1);
  }
  // Time naive vs scheduled application over regions.
  std::vector<AlignedBuffer> src_store;
  std::vector<std::uint8_t*> srcs;
  Rng rng(3);
  for (std::size_t c = 0; c < g.cols(); ++c) {
    src_store.emplace_back(block);
    rng.fill(src_store.back().data(), block);
    srcs.push_back(src_store.back().data());
  }
  std::vector<AlignedBuffer> tgt_store;
  std::vector<std::uint8_t*> tgts;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    tgt_store.emplace_back(block);
    tgts.push_back(tgt_store.back().data());
  }
  const gf::Field& f = code.field();
  const auto naive = [&] {
    for (std::size_t r = 0; r < g.rows(); ++r) {
      bool first = true;
      for (std::size_t c = 0; c < g.cols(); ++c) {
        if (g(r, c) == 0) continue;
        if (first) {
          f.mult_region(tgts[r], srcs[c], 1, block);
          first = false;
        } else {
          f.mult_region_xor(tgts[r], srcs[c], 1, block);
        }
      }
    }
  };
  std::vector<double> tn;
  std::vector<double> ts;
  std::vector<double> to;
  naive();  // warm-up
  for (std::size_t rep = 0; rep < bench::reps(); ++rep) {
    Timer t1;
    naive();
    tn.push_back(t1.seconds());
    Timer t2;
    execute_xor_schedule(*schedule, srcs.data(), tgts.data(), block);
    ts.push_back(t2.seconds());
    // Snapshot the serial result; the optimized run below must reproduce
    // it byte-identically (every rewrite is an op-count change only).
    std::vector<std::vector<std::uint8_t>> serial_out;
    for (std::size_t r = 0; r < g.rows(); ++r) {
      serial_out.emplace_back(tgts[r], tgts[r] + block);
    }
    Timer t4;
    execute_xor_schedule(optimized.schedule, g.rows(), srcs.data(),
                         tgts.data(), block);
    to.push_back(t4.seconds());
    for (std::size_t r = 0; r < g.rows(); ++r) {
      if (std::memcmp(serial_out[r].data(), tgts[r], block) != 0) {
        std::fprintf(stderr, "%s: optimized output differs on target %zu\n",
                     label, r);
        std::exit(1);
      }
    }
  }
  std::printf("%-22s %8zu %8zu %8zu %7.1f%% %9.3fms %9.3fms %9.3fms"
              " %7zu %7.2fx\n",
              label, schedule->naive_ops, schedule->cost(),
              optimized.schedule.cost(), 100 * optimized.schedule.saving(),
              bench::median(std::move(tn)) * 1e3,
              bench::median(std::move(ts)) * 1e3,
              bench::median(std::move(to)) * 1e3,
              analysis.critical_path, analysis.speedup_bound());
}

}  // namespace

int main() {
  bench::banner("Extension", "incremental XOR schedule vs naive (binary codes)");
  std::printf("%-22s %8s %8s %8s %8s %10s %10s %10s %7s %8s\n",
              "code/failure", "naive", "sched", "opt", "saving", "t-naive",
              "t-sched", "t-opt", "cpath", "maxspd");

  {
    const CRSCode code(8, 2, 8);
    report("CRS(8,2) 1 strip", code, code.strip_blocks(3), 64 << 10);
    std::vector<std::size_t> two = code.strip_blocks(1);
    const auto more = code.strip_blocks(6);
    two.insert(two.end(), more.begin(), more.end());
    report("CRS(8,2) 2 strips", code, two, 64 << 10);
  }
  {
    const EvenOddCode code(7);
    std::vector<std::size_t> faulty;
    for (std::size_t i = 0; i < code.rows(); ++i) {
      faulty.push_back(code.block_id(i, 0));
      faulty.push_back(code.block_id(i, 3));
    }
    report("EVENODD p=7 2 disks", code, faulty, 64 << 10);
  }
  {
    const RDPCode code(7);
    std::vector<std::size_t> faulty;
    for (std::size_t i = 0; i < code.rows(); ++i) {
      faulty.push_back(code.block_id(i, 0));
      faulty.push_back(code.block_id(i, 3));
    }
    report("RDP p=7 2 disks", code, faulty, 64 << 10);
  }
  std::printf("\n(difference-based scheduling reuses computed targets; the "
              "saving depends on row overlap in the decode matrix)\n");
  return 0;
}
