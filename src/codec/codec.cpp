#include "codec/codec.h"

#include <algorithm>
#include <stdexcept>

#include "analyze_hazard/hazard.h"
#include "common/cpu.h"
#include "common/timer.h"
#include "decode/block_parallel_decoder.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "decode/xor_schedule.h"
#include "optimize_xor/xoropt.h"
#include "parallel/task_group.h"
#include "plan_store/plan_store.h"
#include "verify_plan/plan_verify.h"

namespace ppm {

CachedPlan CachedPlan::assemble(std::vector<SubPlan> groups,
                                std::optional<SubPlan> rest) {
  CachedPlan plan;
  plan.group_plans_ = std::move(groups);
  plan.rest_plan_ = std::move(rest);
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

Codec::Codec(const ErasureCode& code, Options options)
    : code_(&code),
      options_(options),
      signature_digest_(code.code_signature().digest),
      cache_(options.cache_capacity == 0 ? 1 : options.cache_capacity,
             options.cache_shards, &metrics_.plan_hits, &metrics_.plan_misses,
             &metrics_.plan_evictions) {
  if (options_.threads == 0) options_.threads = hardware_threads();
  if (options_.cache_capacity == 0) options_.cache_capacity = 1;
}

std::vector<std::size_t> Codec::plan_key(
    const FailureScenario& scenario) const {
  std::vector<std::size_t> key;
  key.reserve(scenario.count() + 1);
  key.push_back(static_cast<std::size_t>(signature_digest_));
  key.insert(key.end(), scenario.faulty().begin(), scenario.faulty().end());
  return key;
}

void Codec::attach_store(const std::string& directory) {
  attach_store(std::make_shared<planstore::PlanStore>(directory));
}

void Codec::attach_store(std::shared_ptr<planstore::PlanStore> store) {
  const std::scoped_lock lock(store_mutex_);
  store_ = std::move(store);
}

std::shared_ptr<planstore::PlanStore> Codec::store() const {
  return store_ref();
}

std::shared_ptr<planstore::PlanStore> Codec::store_ref() const {
  const std::scoped_lock lock(store_mutex_);
  return store_;
}

std::size_t Codec::warm() {
  const auto store = store_ref();
  if (store == nullptr) return 0;
  auto bulk = store->load_all(*code_);
  metrics_.planstore_load_failures.add(bulk.rejected);
  metrics_.planstore_quarantined.add(bulk.renamed);
  std::size_t warmed = 0;
  for (auto& [scenario, plan] : bulk.plans) {
    metrics_.planstore_loads.add();
    cache_.insert(plan_key(scenario), std::move(plan));
    metrics_.planstore_warm_hits.add();
    ++warmed;
  }
  return warmed;
}

std::size_t Codec::warm(std::span<const FailureScenario> scenarios) {
  const auto store = store_ref();
  if (store == nullptr) return 0;
  std::size_t warmed = 0;
  for (const FailureScenario& scenario : scenarios) {
    if (load_stored(*store, scenario) == nullptr) continue;
    metrics_.planstore_warm_hits.add();
    ++warmed;
  }
  return warmed;
}

std::shared_ptr<const CachedPlan> Codec::load_stored(
    planstore::PlanStore& store, const FailureScenario& scenario) {
  std::shared_ptr<const CachedPlan> loaded;
  bool renamed = false;
  switch (store.load(*code_, scenario, &loaded, nullptr, &renamed)) {
    case planstore::PlanStore::LoadResult::kLoaded:
      metrics_.planstore_loads.add();
      return cache_.insert(plan_key(scenario), std::move(loaded));
    case planstore::PlanStore::LoadResult::kRejected:
      metrics_.planstore_load_failures.add();
      if (renamed) metrics_.planstore_quarantined.add();
      break;  // the bad record is gone; the caller rebuilds
    case planstore::PlanStore::LoadResult::kMissing:
      break;
  }
  return nullptr;
}

std::shared_ptr<CachedPlan> Codec::build_plan(
    const FailureScenario& scenario) const {
  const Matrix& h = code_->parity_check();
  const LogTable table = LogTable::build(h, scenario.faulty());
  const Partition part = make_partition(h, table);

  auto plan = std::make_shared<CachedPlan>();
  plan->group_plans_.reserve(part.p());
  for (const IndependentGroup& g : part.groups) {
    auto sub = SubPlan::make(h, g.rows, g.faulty_cols, scenario.faulty(),
                             Sequence::kMatrixFirst);
    if (!sub.has_value()) return nullptr;
    plan->group_plans_.push_back(std::move(*sub));
  }
  if (!part.rest_empty()) {
    // Auto sequence: the cheaper of C3/C4 tails.
    const auto costs = SubPlan::sequence_costs(h, part.rest_rows,
                                               part.rest_faulty,
                                               part.rest_faulty);
    if (!costs.has_value()) return nullptr;
    const Sequence seq = costs->second < costs->first
                             ? Sequence::kMatrixFirst
                             : Sequence::kNormal;
    auto rest = SubPlan::make(h, part.rest_rows, part.rest_faulty,
                              part.rest_faulty, seq);
    if (!rest.has_value()) return nullptr;
    plan->rest_plan_ = std::move(*rest);
  }
  // Every plan carries its hazard/cost profile from birth: consumers
  // (`ppm_cli analyze`, the plan store, schedulers) read profile()
  // instead of re-running the analysis, and the store cross-checks the
  // persisted copy against a fresh analysis on every load.
  const auto analysis = hazard::analyze_plan(*plan);
  plan->profile_.cost = plan->cost();
  plan->profile_.work = analysis.total_work;
  plan->profile_.critical_path = analysis.critical_path;
  plan->profile_.max_width = analysis.max_width;
  plan->profile_.level_width = analysis.level_width;
  plan->profile_.hazard_free = analysis.ok();
  // Superoptimize every binary sub-system's XOR schedule when asked. Each
  // accepted rewrite already carries its proof (xoropt gates on symbolic
  // replay + hazard re-analysis); a sub-system whose every rewrite was
  // rejected still attaches its greedy schedule — the plan is never worse
  // off for having tried.
  if (options_.optimize_xor) {
    const auto optimize_sub = [&](const SubPlan& sub, std::size_t index) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto base = plan_xor_schedule(applied);
      if (!base.has_value()) return;  // non-binary system: no XOR schedule
      auto result = xoropt::optimize(applied, *base);
      plan->xoropt_stats_.passes += result.stats.passes;
      plan->xoropt_stats_.rewrites_accepted += result.stats.rewrites_accepted;
      plan->xoropt_stats_.rewrites_rejected += result.stats.rewrites_rejected;
      plan->xoropt_stats_.ops_saved += result.stats.ops_saved;
      plan->xoropt_stats_.temps += result.stats.temps;
      plan->schedules_.push_back(
          PlanSchedule{index, std::move(result.schedule)});
    };
    for (std::size_t i = 0; i < plan->group_plans_.size(); ++i) {
      optimize_sub(plan->group_plans_[i], i);
    }
    if (plan->rest_plan_.has_value()) {
      optimize_sub(*plan->rest_plan_, plan->group_plans_.size());
    }
  }
  return plan;
}

std::shared_ptr<const CachedPlan> Codec::plan_for(
    const FailureScenario& scenario) {
  const std::vector<std::size_t> key = plan_key(scenario);
  if (auto cached = cache_.get(key)) return *cached;

  // Miss: with a store attached, try a zero-trust load from disk before
  // paying the rebuild — the store re-proves the record with planverify +
  // hazard analysis and quarantines anything that fails, so a loaded plan
  // is exactly as trustworthy as a built one.
  const auto store = store_ref();
  if (store != nullptr) {
    if (auto loaded = load_stored(*store, scenario)) return loaded;
  }

  // Build outside any lock. Concurrent missers may build the same plan;
  // insert() keeps the first and everyone shares it.
  const Timer build;
  auto plan = build_plan(scenario);
  if (plan == nullptr) {
    metrics_.plan_failures.add();
    return nullptr;
  }
  metrics_.plans_analyzed.add();
  metrics_.analyzed_work.add(plan->profile().work);
  metrics_.analyzed_critical_path.add(plan->profile().critical_path);
  metrics_.xoropt_passes.add(plan->xoropt_stats().passes);
  metrics_.xoropt_rewrites_accepted.add(plan->xoropt_stats().rewrites_accepted);
  metrics_.xoropt_rewrites_rejected.add(plan->xoropt_stats().rewrites_rejected);
  metrics_.xoropt_ops_saved.add(plan->xoropt_stats().ops_saved);
  if (!plan->profile().hazard_free) {
    metrics_.hazard_failures.add();
#ifdef PPM_VERIFY_PLANS
    // A hazardous fan-out is a library bug; running it could corrupt
    // every stripe it decodes, so fail loudly instead of returning it.
    throw std::logic_error(
        "PPM_VERIFY_PLANS: concurrency hazard: " +
        planverify::to_json(hazard::analyze_plan(*plan).violations));
#endif
  }
#ifdef PPM_VERIFY_PLANS
  // Statically prove the plan sound before it can touch a byte (Debug /
  // -DPPM_VERIFY_PLANS=ON builds). A violation is a library bug; serving
  // a provably wrong plan would corrupt every stripe it decodes, so fail
  // loudly instead of returning it.
  {
    const auto verdict = planverify::verify_plan(*code_, scenario, *plan);
    if (!verdict.ok()) {
      metrics_.plan_verify_failures.add();
      throw std::logic_error("PPM_VERIFY_PLANS: plan rejected: " +
                             planverify::to_json(verdict.violations));
    }
    metrics_.plans_verified.add();
  }
#endif
  metrics_.plan_seconds.record_seconds(build.seconds());
  // Write-through: persist the verified plan so the next process (or a
  // sibling node) can warm from disk. Hazardous plans are never persisted
  // — the load path would only quarantine them again.
  if (store != nullptr && plan->profile().hazard_free) {
    if (store->put(*code_, scenario, *plan)) {
      metrics_.planstore_stores.add();
    } else {
      // Best-effort durability: a failed write-through costs the next
      // restart a rebuild, nothing more. Counted, never thrown.
      metrics_.planstore_store_failures.add();
    }
  }
  return cache_.insert(key, std::move(plan));
}

bool Codec::decode(const FailureScenario& scenario,
                   std::uint8_t* const* blocks, std::size_t block_bytes,
                   DecodeStats* stats) {
  if (block_bytes % code_->field().symbol_bytes() != 0) return false;
  if (scenario.empty()) return true;
  const Timer total;
  const auto plan = plan_for(scenario);
  if (plan == nullptr) return false;
  const DecodeStats local = execute_sliced(*plan, {&blocks, 1}, block_bytes);
  metrics_.decodes.add();
  metrics_.stripes_decoded.add();
  metrics_.mult_xors.add(local.mult_xors);
  metrics_.bytes_touched.add(local.bytes_touched);
  metrics_.decode_seconds.record_seconds(total.seconds());
  if (stats != nullptr) {
    stats->mult_xors += local.mult_xors;
    stats->bytes_touched += local.bytes_touched;
    stats->blocks_read += local.blocks_read;
  }
  return true;
}

bool Codec::encode(std::uint8_t* const* blocks, std::size_t block_bytes,
                   DecodeStats* stats) {
  return decode(FailureScenario::encoding_of(*code_), blocks, block_bytes,
                stats);
}

ThreadPool& Codec::worker_pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(std::max(1u, options_.threads));
  });
  return *pool_;
}

DecodeStats Codec::execute_sliced(
    const CachedPlan& plan, std::span<std::uint8_t* const* const> stripes,
    std::size_t block_bytes) {
  if (stripes.empty()) return {};
  // Enough slices to give every worker a task, but none carrying less
  // than kMinSliceWork; plan_slices caps the count at one per symbol.
  const std::size_t by_threads =
      (options_.threads + stripes.size() - 1) / stripes.size();
  const std::size_t by_work = plan.cost() * block_bytes / kMinSliceWork;
  const unsigned sym = code_->field().symbol_bytes();
  const std::vector<SliceRange> slices = plan_slices(
      block_bytes, sym,
      static_cast<unsigned>(
          std::max<std::size_t>(1, std::min(by_threads, by_work))));
#ifdef PPM_VERIFY_PLANS
  // Prove the fan-out race-free before any task starts: on every sub-plan
  // the slices must be symbol-aligned, disjoint and tile the region. Each
  // task runs the plan serially, so no group-level proof is needed.
  const auto prove = [&](const SubPlan& sub) {
    const auto verdict =
        hazard::analyze_slices(sub, slices, block_bytes, sym);
    if (!verdict.ok()) {
      throw std::logic_error("PPM_VERIFY_PLANS: slice fan-out rejected: " +
                             planverify::to_json(verdict.violations));
    }
  };
  for (const SubPlan& g : plan.groups()) prove(g);
  if (plan.rest().has_value()) prove(*plan.rest());
#endif
  const std::size_t blocks_per_stripe = code_->total_blocks();
  const auto run = [&](std::size_t task) {
    std::uint8_t* const* blocks = stripes[task / slices.size()];
    const SliceRange& slice = slices[task % slices.size()];
    // The whole plan runs one tile at a time, so the survivor tiles the
    // groups read are still in L2 when H_rest reads them again: each
    // stripe byte streams from memory once, not once per sub-plan.
    std::vector<std::uint8_t*> view(blocks_per_stripe);
    for (std::size_t off = 0; off < slice.bytes; off += SubPlan::kTileBytes) {
      for (std::size_t b = 0; b < blocks_per_stripe; ++b) {
        view[b] = blocks[b] + slice.offset + off;
      }
      plan.execute(view.data(),
                   std::min(SubPlan::kTileBytes, slice.bytes - off));
    }
  };
  const std::size_t tasks = stripes.size() * slices.size();
  if (tasks <= 1 || options_.threads <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) run(i);
  } else {
    TaskGroup group(worker_pool());
    for (std::size_t i = 0; i < tasks; ++i) group.add([&run, i] { run(i); });
    group.wait();
  }
  if (slices.size() > 1) metrics_.stripes_sliced.add(stripes.size());

  // Slicing splits bytes, not ops: each stripe counts one serial execute,
  // so the paper's C is never multiplied by the slice count.
  std::size_t sources = 0;
  for (const SubPlan& g : plan.groups()) sources += g.source_blocks();
  if (plan.rest().has_value()) sources += plan.rest()->source_blocks();
  DecodeStats stats;
  stats.mult_xors = plan.cost() * stripes.size();
  stats.bytes_touched = stats.mult_xors * block_bytes;
  stats.blocks_read = sources * stripes.size();
  return stats;
}

std::optional<BatchResult> Codec::decode_batch(
    const FailureScenario& scenario,
    const std::vector<std::uint8_t* const*>& stripes,
    std::size_t block_bytes) {
  if (block_bytes % code_->field().symbol_bytes() != 0) return std::nullopt;
  BatchResult result;
  result.stripes = stripes.size();
  const Timer total;
  const auto plan = plan_for(scenario);
  if (plan == nullptr) return std::nullopt;
  result.plan_seconds = total.seconds();
  result.stats = execute_sliced(*plan, stripes, block_bytes);
  result.seconds = total.seconds();
  metrics_.batches.add();
  metrics_.stripes_decoded.add(stripes.size());
  metrics_.mult_xors.add(result.stats.mult_xors);
  metrics_.bytes_touched.add(result.stats.bytes_touched);
  metrics_.batch_seconds.record_seconds(result.seconds);
  return result;
}

}  // namespace ppm
