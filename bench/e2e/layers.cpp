// Per-layer probes of a traced run: region kernels and CRC32 (gf,
// common), plan fetch (codec, plan_store), and the decode/parallel
// mirrors of the library's executors.
#include <algorithm>
#include <cstring>
#include <thread>

#include "analyze_hazard/hazard.h"
#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "gf/galois_field.h"
#include "harness.h"
#include "parallel/task_group.h"
#include "plan_store/plan_store.h"

namespace e2e {

namespace {

/// Minimum wall time and rounds spent on each kernel.
constexpr double kKernelSeconds = 0.15;
constexpr int kKernelRounds = 5;
/// Fresh codecs timed for each of the build and store-load fetch classes.
constexpr std::size_t kFetchSamples = 16;

/// Median GB/s of `kernel(dst, src)` over rounds that each sweep the
/// whole buffer once in block-sized (dst, src) pairs.
template <class Kernel>
double kernel_gbps(ppm::AlignedBuffer& buf, std::size_t block_bytes,
                   Kernel kernel) {
  const std::size_t pairs = std::max<std::size_t>(1, buf.size() / (2 * block_bytes));
  Samples rates;
  const auto start = Clock::now();
  while (rates.size() < kKernelRounds ||
         seconds_between(start, Clock::now()) < kKernelSeconds) {
    const auto round = Clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
      std::uint8_t* dst = buf.data() + 2 * i * block_bytes;
      kernel(dst, dst + block_bytes);
    }
    const double s = seconds_between(round, Clock::now());
    rates.add(static_cast<double>(pairs * block_bytes) / s / 1e9);
  }
  return rates.median();
}

}  // namespace

void probe_kernels(unsigned w, std::size_t block_bytes,
                   std::size_t thread_working_set_bytes, std::uint64_t seed,
                   Report& report) {
  const std::size_t pairs =
      std::max<std::size_t>(1, thread_working_set_bytes / (2 * block_bytes));
  ppm::AlignedBuffer buf(2 * pairs * block_bytes);
  ppm::Rng rng(seed);
  rng.fill(buf.data(), buf.size());
  const ppm::gf::Field& f = ppm::gf::field(w);
  // Any constant but 0 and 1, which take the no-op and pure-XOR paths.
  const ppm::gf::Element c = 2 + static_cast<ppm::gf::Element>(
                                     rng.bounded(f.max_element() - 1));

  report.set("gf.mult_xor_gbps",
             kernel_gbps(buf, block_bytes,
                         [&](std::uint8_t* dst, const std::uint8_t* src) {
                           f.mult_region_xor(dst, src, c, block_bytes);
                         }),
             "GB/s");
  const std::pair<ppm::IsaLevel, const char*> levels[] = {
      {ppm::IsaLevel::kScalar, "scalar"},
      {ppm::IsaLevel::kSsse3, "ssse3"},
      {ppm::IsaLevel::kAvx2, "avx2"},
      {ppm::IsaLevel::kAvx512, "avx512"}};
  for (const auto& [level, name] : levels) {
    report.set(std::string("gf.mult_xor_gbps.") + name,
               kernel_gbps(buf, block_bytes,
                           [&](std::uint8_t* dst, const std::uint8_t* src) {
                             f.mult_region_xor_isa(dst, src, c, block_bytes,
                                                   level);
                           }),
               "GB/s");
  }
  report.set("gf.xor_gbps",
             kernel_gbps(buf, block_bytes,
                         [&](std::uint8_t* dst, const std::uint8_t* src) {
                           ppm::gf::xor_region(dst, src, block_bytes);
                         }),
             "GB/s");
  report.set("gf.memcpy_gbps",
             kernel_gbps(buf, block_bytes,
                         [&](std::uint8_t* dst, const std::uint8_t* src) {
                           std::memcpy(dst, src, block_bytes);
                         }),
             "GB/s");
  volatile std::uint32_t sink = 0;  // keeps every CRC computed
  report.set("common.crc32_gbps",
             kernel_gbps(buf, block_bytes,
                         [&](std::uint8_t*, const std::uint8_t* src) {
                           sink = ppm::crc32(src, block_bytes);
                         }),
             "GB/s");
}

void probe_plan_fetch(const ppm::ErasureCode& code,
                      const std::vector<ppm::FailureScenario>& sequence,
                      const std::filesystem::path& store_dir, Report& report) {
  std::filesystem::remove_all(store_dir);
  ppm::Codec replay(code);
  replay.attach_store(store_dir.string());
  Samples hit_us, store_us, build_us;
  std::size_t hits = 0, loads = 0, builds = 0;
  for (const ppm::FailureScenario& scenario : sequence) {
    const std::size_t hits_before = replay.cache_hits();
    const std::size_t loads_before = replay.metrics().planstore_loads.value();
    const auto start = Clock::now();
    replay.plan_for(scenario);
    const double us = seconds_between(start, Clock::now()) * 1e6;
    if (replay.cache_hits() > hits_before) {
      ++hits;
      hit_us.add(us);
    } else if (replay.metrics().planstore_loads.value() > loads_before) {
      ++loads;
      store_us.add(us);
    } else {
      ++builds;
      build_us.add(us);
    }
  }

  // Every workload gets build and store-load samples, even one whose
  // replay never misses: fresh codecs without and with the now-populated
  // store, over the sequence's first distinct scenarios.
  std::vector<ppm::FailureScenario> distinct;
  for (const ppm::FailureScenario& s : sequence) {
    if (distinct.size() == kFetchSamples) break;
    if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
      distinct.push_back(s);
    }
  }
  for (std::size_t i = 0; i < kFetchSamples && !distinct.empty(); ++i) {
    const ppm::FailureScenario& scenario = distinct[i % distinct.size()];
    {
      ppm::Codec fresh(code);
      const auto start = Clock::now();
      fresh.plan_for(scenario);
      build_us.add(seconds_between(start, Clock::now()) * 1e6);
    }
    {
      ppm::Codec fresh(code);
      fresh.attach_store(replay.store());
      const auto start = Clock::now();
      fresh.plan_for(scenario);
      store_us.add(seconds_between(start, Clock::now()) * 1e6);
    }
  }
  std::filesystem::remove_all(store_dir);

  const double fetches = static_cast<double>(std::max<std::size_t>(1, sequence.size()));
  report.set("codec.plan_fetch_us.hit", hit_us.median(), "us");
  report.set("codec.plan_fetch_us.store", store_us.median(), "us");
  report.set("codec.plan_fetch_us.build", build_us.median(), "us");
  report.set("codec.plan_hit_ratio", static_cast<double>(hits) / fetches,
             "ratio");
  report.set("codec.plan_builds", static_cast<double>(builds), "count");
  report.set("plan_store.loads", static_cast<double>(loads), "count");
}

double DecodeLayer::decode_placed(ppm::Codec& codec,
                                  const ppm::FailureScenario& scenario,
                                  std::uint8_t* const* blocks,
                                  std::size_t block_bytes,
                                  ppm::ThreadPool& pool) {
  const auto start = Clock::now();
  const auto plan = codec.plan_for(scenario);
  if (plan == nullptr) return -1;
  const std::span<const ppm::SubPlan> groups = plan->groups();
  ppm::DecodeStats stats;
  std::vector<double> lane_busy;
  const auto fanout = Clock::now();
  if (pool.size() > 1 && groups.size() > 1 && plan->profile().hazard_free) {
    std::vector<std::size_t> work(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) work[i] = groups[i].cost();
    const ppm::hazard::Placement placement =
        ppm::hazard::place_lpt(work, pool.size());
    const std::size_t lanes = placement.lane_units.size();
    lane_busy.assign(lanes, 0.0);
    std::vector<ppm::DecodeStats> lane_stats(lanes);
    {
      ppm::TaskGroup group(pool);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (placement.lane_units[l].empty()) continue;
        group.add([&, l] {
          const auto t = Clock::now();
          for (const std::size_t i : placement.lane_units[l]) {
            groups[i].execute(blocks, block_bytes, &lane_stats[l]);
          }
          lane_busy[l] = seconds_between(t, Clock::now());
        });
      }
      group.wait();
    }
    for (const ppm::DecodeStats& st : lane_stats) {
      stats.mult_xors += st.mult_xors;
      stats.bytes_touched += st.bytes_touched;
    }
  } else {
    for (const ppm::SubPlan& g : groups) g.execute(blocks, block_bytes, &stats);
    lane_busy.assign(1, seconds_between(fanout, Clock::now()));
  }
  const auto rest_start = Clock::now();
  const double groups_s = seconds_between(fanout, rest_start);
  if (plan->rest().has_value()) {
    plan->rest()->execute(blocks, block_bytes, &stats);
  }
  const auto end = Clock::now();
  const double op_s = seconds_between(start, end);
  double busy = 0;
  for (const double b : lane_busy) busy += b;
  const double task_s =
      groups.empty() ? 0 : busy / static_cast<double>(groups.size());
  record(op_s, groups_s, task_s, seconds_between(rest_start, end), lane_busy,
         groups_s, stats);
  return op_s;
}

double DecodeLayer::decode_batch(ppm::Codec& codec,
                                 const ppm::FailureScenario& scenario,
                                 const std::vector<std::uint8_t* const*>& stripes,
                                 std::size_t block_bytes,
                                 ppm::ThreadPool& pool) {
  const auto start = Clock::now();
  const auto plan = codec.plan_for(scenario);
  if (plan == nullptr) return -1;
  const std::size_t n = stripes.size();
  std::vector<double> groups_s(n), rest_s(n), task_s(n);
  std::vector<std::thread::id> worker(n);
  std::vector<ppm::DecodeStats> stats(n);
  const auto run_stripe = [&](std::size_t i) {
    const auto t = Clock::now();
    for (const ppm::SubPlan& g : plan->groups()) {
      g.execute(stripes[i], block_bytes, &stats[i]);
    }
    const auto mid = Clock::now();
    if (plan->rest().has_value()) {
      plan->rest()->execute(stripes[i], block_bytes, &stats[i]);
    }
    groups_s[i] = seconds_between(t, mid);
    rest_s[i] = seconds_between(mid, Clock::now());
    task_s[i] = plan->groups().empty()
                    ? 0.0
                    : groups_s[i] / static_cast<double>(plan->groups().size());
    worker[i] = std::this_thread::get_id();
  };
  const auto fanout = Clock::now();
  if (pool.size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) run_stripe(i);
  } else {
    ppm::TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i) group.add([&, i] { run_stripe(i); });
    group.wait();
  }
  const auto end = Clock::now();

  // Lane = worker thread; a worker that got no stripe counts as idle.
  std::vector<std::thread::id> ids;
  std::vector<double> lane_busy(std::max<std::size_t>(1, pool.size()), 0.0);
  ppm::DecodeStats total;
  Samples groups, rest, tasks;
  for (std::size_t i = 0; i < n; ++i) {
    auto it = std::find(ids.begin(), ids.end(), worker[i]);
    if (it == ids.end()) it = ids.insert(ids.end(), worker[i]);
    lane_busy[static_cast<std::size_t>(it - ids.begin())] +=
        groups_s[i] + rest_s[i];
    total.mult_xors += stats[i].mult_xors;
    total.bytes_touched += stats[i].bytes_touched;
    groups.add(groups_s[i]);
    rest.add(rest_s[i]);
    tasks.add(task_s[i]);
  }
  const double op_s = seconds_between(start, end);
  record(op_s, groups.mean(), tasks.mean(), rest.mean(), lane_busy,
         seconds_between(fanout, end), total);
  return op_s;
}

void DecodeLayer::record(double op_s, double groups_s, double task_s,
                         double rest_s, const std::vector<double>& lane_busy,
                         double fanout_s, const ppm::DecodeStats& stats) {
  double busy = 0;
  double max_busy = 0;
  for (const double b : lane_busy) {
    busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double lanes = static_cast<double>(lane_busy.size());
  op_s_.add(op_s);
  groups_s_.add(groups_s);
  task_s_.add(task_s);
  rest_s_.add(rest_s);
  imbalance_.add(busy > 0 ? max_busy / (busy / lanes) : 1.0);
  efficiency_.add(fanout_s > 0 ? busy / (lanes * fanout_s) : 1.0);
  mult_xors_.add(static_cast<double>(stats.mult_xors));
  bytes_touched_.add(static_cast<double>(stats.bytes_touched));
}

void DecodeLayer::report(double memcpy_gbps, Report& report) const {
  const double groups_ms = groups_s_.median() * 1e3;
  const double rest_ms = rest_s_.median() * 1e3;
  const double achieved =
      op_s_.median() > 0 ? bytes_touched_.mean() / op_s_.median() / 1e9 : 0;
  report.set("decode.mult_xors", mult_xors_.mean(), "count");
  report.set("decode.bytes_touched_mb", bytes_touched_.mean() / 1e6, "MB");
  report.set("decode.groups_ms", groups_ms, "ms");
  report.set("decode.group_task_ms", task_s_.median() * 1e3, "ms");
  report.set("decode.rest_ms", rest_ms, "ms");
  report.set("decode.rest_share",
             groups_ms + rest_ms > 0 ? rest_ms / (groups_ms + rest_ms) : 0,
             "ratio");
  report.set("decode.achieved_gbps", achieved, "GB/s");
  report.set("decode.roofline_frac",
             memcpy_gbps > 0 ? achieved / memcpy_gbps : 0, "ratio");
  report.set("parallel.lane_imbalance", imbalance_.median(), "ratio");
  report.set("parallel.fanout_efficiency", efficiency_.median(), "ratio");
}

void report_unexercised_serving(Report& report) {
  for (const char* name : {"io.read_us.p50", "io.read_us.p99"}) {
    report.set(name, 0, "us");
  }
  report.set("io.reads_per_req", 0, "count");
  report.set("io.read_fail_frac", 0, "ratio");
  for (const char* name : {"serve.queue_ms.p50", "serve.queue_ms.p99",
                           "serve.fetch_ms", "serve.solve_ms",
                           "serve.tail_ms"}) {
    report.set(name, 0, "ms");
  }
  for (const char* name : {"serve.overlap_frac", "serve.fallback_frac",
                           "serve.hedge_win_ratio"}) {
    report.set(name, 0, "ratio");
  }
  report.set("serve.hedges_per_req", 0, "count");
  report.set("serve.batch_size_mean", 0, "count");
  report.set("loadgen.late_ms.p99", 0, "ms");
}

}  // namespace e2e
