// Codec: the stripe-store-facing facade.
//
// A storage system rarely decodes one stripe: a disk failure touches the
// same block positions of *every* stripe in the placement group. The codec
// therefore (a) caches decode plans per failure scenario — the matrix
// bookkeeping (log table, partition, inversions) is paid once and reused
// across stripes — and (b) runs every decode, encode and batch decode
// through one stripe×slice fan-out on its worker pool. Each task executes
// a stripe's whole cached plan (the O1 groups, then H_rest) on one
// contiguous byte range of every block, one SubPlan::kTileBytes tile at a
// time so H_rest finds the tiles the groups read still in L2: region ops
// are element-wise, so slices and tiles are independent, PPM keeps its
// min(C3, C4) op count, and its serial H_rest tail is split across the
// cores like everything else. A
// batch of at least `threads` stripes runs one slice per stripe, the
// classic inter-stripe parallelism of [36]-[38]; a smaller batch, or one
// stripe, is cut into ⌈threads / stripes⌉ slices per stripe, as long as
// each slice carries kMinSliceWork.
//
// Thread-safety: a Codec is safe for concurrent use from any number of
// threads. plan_for/decode/encode/decode_batch may all run at once; the
// plan cache is sharded-LRU (common/sharded_lru.h) so lookups on distinct
// scenarios rarely contend, and the stats/metrics accessors are lock-free
// relaxed-atomic reads. Two threads that miss on the same scenario
// concurrently may both build the plan; the first insert wins and both
// threads share the surviving instance. See docs/CONCURRENCY.md for the
// full contract.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/resilient.h"
#include "codes/erasure_code.h"
#include "common/metrics.h"
#include "common/sharded_lru.h"
#include "decode/plan.h"
#include "decode/ppm_decoder.h"
#include "decode/scenario.h"
#include "decode/xor_schedule.h"
#include "optimize_xor/xoropt.h"
#include "parallel/thread_pool.h"

namespace ppm {

namespace planstore {
class PlanStore;
}  // namespace planstore

namespace io {
class BlockSource;
}  // namespace io

/// Cost/concurrency profile of a cached plan — the numbers the hazard
/// analyzer (analyze_hazard/) derives from the plan's dependency DAG.
/// Computed exactly once, when the plan is built (or re-verified on load
/// from the persistent store), and carried with the plan so downstream
/// consumers (`ppm_cli analyze`, schedulers, the store) never recompute
/// the analysis for a plan that already holds it.
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

/// A superoptimized XOR schedule for one binary sub-system of a plan,
/// attached only after it carried a passing xoropt proof (symbolic GF(2)
/// replay + hazard re-analysis). `sub` indexes CachedPlan::groups();
/// sub == groups().size() refers to the rest() sub-plan.
struct PlanSchedule {
  std::size_t sub = 0;
  XorSchedule schedule;
};

/// A fully planned PPM decode, reusable across stripes with the same
/// failure scenario. Thread-safe to execute concurrently on distinct
/// stripes or on disjoint slices of one stripe.
class CachedPlan {
 public:
  std::size_t p() const { return group_plans_.size(); }
  std::size_t cost() const;

  /// The hazard/cost profile computed when this plan was built or
  /// re-verified on load. Plans assembled via assemble() carry a default
  /// (all-zero, !hazard_free) profile — nothing is analyzed there.
  const PlanProfile& profile() const { return profile_; }

  /// Execute on one stripe (or on one slice of it: every block region
  /// shifted to the same offset): groups, then the rest plan, serially in
  /// the calling thread. Codec runs many of these concurrently, one per
  /// stripe×slice task.
  void execute(std::uint8_t* const* blocks, std::size_t block_bytes,
               DecodeStats* stats = nullptr) const;

  /// The independent-group sub-plans, in execution order.
  std::span<const SubPlan> groups() const { return group_plans_; }

  /// The H_rest sub-plan, executed after every group (its survivors may
  /// therefore include group-recovered blocks).
  const std::optional<SubPlan>& rest() const { return rest_plan_; }

  /// Proof-carrying optimized XOR schedules for the plan's binary
  /// sub-systems, one per entry (empty unless the codec was built with
  /// Options::optimize_xor and at least one rewrite proved out). Each
  /// schedule passed xoropt::prove against its sub-plan's applied matrix
  /// when it was attached; the plan store re-proves on every reload.
  std::span<const PlanSchedule> schedules() const { return schedules_; }

  /// Aggregate optimizer statistics over every sub-system the pipeline
  /// ran on (all-zero when Options::optimize_xor is off).
  const xoropt::Stats& xoropt_stats() const { return xoropt_stats_; }

  /// Assemble a plan from explicit sub-plans, bypassing the planner. For
  /// verification tooling and tests (verify_plan/ exercises hand-corrupted
  /// plans); nothing is validated here.
  static CachedPlan assemble(std::vector<SubPlan> groups,
                             std::optional<SubPlan> rest);

 private:
  friend class Codec;
  friend class planstore::PlanStore;  // sets profile_ after re-verification
  std::vector<SubPlan> group_plans_;
  std::optional<SubPlan> rest_plan_;
  PlanProfile profile_;
  std::vector<PlanSchedule> schedules_;
  xoropt::Stats xoropt_stats_;
};

struct BatchResult {
  std::size_t stripes = 0;
  DecodeStats stats;           ///< summed over all stripes
  double seconds = 0;          ///< wall time for the whole batch
  double plan_seconds = 0;     ///< planning time (paid once)
};

class Codec {
 public:
  struct Options {
    /// Worker-pool size (0 = hardware threads). Every decode, encode and
    /// batch decode fans out over it; 1 runs everything in the caller.
    unsigned threads = 0;
    std::size_t cache_capacity = 64;  ///< retained scenario plans (total)
    /// Plan-cache mutex domains. 0 = auto: min(8, cache_capacity). 1
    /// degenerates to a single strict-LRU cache (useful for tests wanting
    /// deterministic eviction order); more shards reduce lock contention
    /// but evict per shard rather than globally.
    std::size_t cache_shards = 0;
    /// Run the proof-carrying XOR-schedule superoptimizer
    /// (optimize_xor/xoropt.h) over every binary sub-system when a plan
    /// is built, and attach the proven schedules to the CachedPlan (and,
    /// through the store, to disk). Off by default: planning cost grows
    /// and only binary (CRS/EVENODD/RDP/STAR-style) systems benefit.
    bool optimize_xor = false;
  };

  /// Region-op bytes (plan cost × block bytes) one slice must carry to be
  /// worth a pool hand-off; a stripe with less work runs as fewer slices,
  /// down to one. Measured with bench/ablation_region_split's block-size
  /// sweep on a 4-vCPU AVX-512 + GFNI Xeon, three runs: on SD^{2,2}_{8,16},
  /// w=8 (a 452-op plan), 2 and 4 slices lose to serial at 8 KiB blocks
  /// (3.7 MB of work), 4 slices win by 1.3-1.5x at 16 KiB (where a whole
  /// stripe no longer fits one core's L2) and by 1.5-2.5x at 32 KiB.
  static constexpr std::size_t kMinSliceWork = std::size_t{2} << 20;

  explicit Codec(const ErasureCode& code) : Codec(code, Options{}) {}
  Codec(const ErasureCode& code, Options options);

  const ErasureCode& code() const { return *code_; }

  /// Plan (or fetch the cached plan for) a scenario. std::nullopt when
  /// undecodable. The shared_ptr keeps the plan alive for the caller even
  /// after LRU eviction.
  std::shared_ptr<const CachedPlan> plan_for(const FailureScenario& scenario);

  /// Decode one stripe using the cached plan, sliced over the worker
  /// pool when its work is large enough. False, with no block touched,
  /// when the scenario is undecodable or `block_bytes` is not a multiple
  /// of the field's symbol size.
  bool decode(const FailureScenario& scenario, std::uint8_t* const* blocks,
              std::size_t block_bytes, DecodeStats* stats = nullptr);

  /// Encode one stripe (scenario = all parity blocks); same contract as
  /// decode().
  bool encode(std::uint8_t* const* blocks, std::size_t block_bytes,
              DecodeStats* stats = nullptr);

  /// Resilient decode over a fallible BlockSource (io/block_source.h):
  /// survivors are fetched through `source` into the caller's `blocks`
  /// regions with bounded retries + exponential backoff under one
  /// per-decode deadline; a permanently unreadable (or, given digests,
  /// corrupt) survivor is escalated into the faulty set and the decode
  /// re-planned through the plan cache/store; an undecodable escalated
  /// scenario still recovers every independent O1 group whose inputs are
  /// readable (partial recovery). When `expected_crc` has one CRC32 per
  /// block, survivor reads and recovered blocks are integrity-checked
  /// against it and mismatches reported as corruption_detected. Never
  /// throws on I/O faults; see codec/resilient.h and docs/ROBUSTNESS.md.
  /// When `block_bytes` is not a multiple of the field's symbol size it
  /// reads and touches nothing and reports every faulty block
  /// unrecoverable.
  ResilientResult decode_resilient(const FailureScenario& scenario,
                                   io::BlockSource& source,
                                   std::uint8_t* const* blocks,
                                   std::size_t block_bytes,
                                   const ResilienceOptions& options = {},
                                   std::span<const std::uint32_t>
                                       expected_crc = {});

  /// Decode a batch of stripes sharing one failure scenario — the
  /// disk-rebuild path. Planning happens once; the stripes' slices are
  /// distributed over the codec's persistent worker pool (created on the
  /// first fan-out). std::nullopt, with no block touched, when the
  /// scenario is undecodable or `block_bytes` is not a multiple of the
  /// field's symbol size.
  std::optional<BatchResult> decode_batch(
      const FailureScenario& scenario,
      const std::vector<std::uint8_t* const*>& stripes,
      std::size_t block_bytes);

  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_capacity() const { return cache_.capacity(); }
  std::size_t cache_shards() const { return cache_.shard_count(); }

  /// Attach a persistent plan store (plan_store/): plan_for writes every
  /// freshly built plan through to disk and, on a cache miss, tries a
  /// zero-trust load from disk before rebuilding. Creates `directory` if
  /// needed. Attaching while traffic is in flight is safe (the pointer is
  /// swapped under a mutex); in-flight misses may still rebuild.
  void attach_store(const std::string& directory);
  void attach_store(std::shared_ptr<planstore::PlanStore> store);

  /// The attached store, or nullptr.
  std::shared_ptr<planstore::PlanStore> store() const;

  /// Bulk-preload the plan cache from the attached store: every record of
  /// this code (or just `scenarios`) is loaded through the zero-trust
  /// path — parse, planverify, hazard re-analysis — and inserted into the
  /// sharded cache. Returns the number of plans that entered the cache
  /// from disk (also counted in planstore.warm_hits). Records that fail
  /// re-verification are quarantined, counted, and skipped — warm() never
  /// builds; pair it with plan_for for rebuild-on-demand.
  std::size_t warm();
  std::size_t warm(std::span<const FailureScenario> scenarios);

  // Lock-free stats reads (relaxed atomics — safe concurrent with
  // decode traffic; see docs/CONCURRENCY.md).
  std::size_t cache_hits() const { return metrics_.plan_hits.value(); }
  std::size_t cache_misses() const { return metrics_.plan_misses.value(); }
  std::size_t cache_evictions() const {
    return metrics_.plan_evictions.value();
  }

  /// Full metric set (counters + latency histograms); every member is
  /// individually thread-safe to read while the codec serves traffic.
  const CodecMetrics& metrics() const { return metrics_; }

  /// JSON snapshot of metrics() — the export format of `ppm_cli batch`.
  std::string metrics_json() const { return metrics_.to_json(); }

 private:
  std::shared_ptr<CachedPlan> build_plan(const FailureScenario& scenario) const;
  ThreadPool& worker_pool();

  /// The one fan-out: run `plan` on every stripe, each cut into the same
  /// slices, one pool task per stripe×slice (a single task runs in the
  /// caller). Returns the stats of serial execution, counting each
  /// stripe once.
  DecodeStats execute_sliced(const CachedPlan& plan,
                             std::span<std::uint8_t* const* const> stripes,
                             std::size_t block_bytes);

  /// The one key-derivation function shared by the in-memory cache and —
  /// via CodeSignature — the plan store: signature digest, then the
  /// sorted faulty set.
  std::vector<std::size_t> plan_key(const FailureScenario& scenario) const;

  /// Point-in-time copy of the attached store pointer.
  std::shared_ptr<planstore::PlanStore> store_ref() const;
  // Zero-trust load of `scenario` from `store` into the plan cache,
  // counting the outcome; nullptr when no sound record exists.
  std::shared_ptr<const CachedPlan> load_stored(
      planstore::PlanStore& store, const FailureScenario& scenario);

  const ErasureCode* code_;
  Options options_;
  std::uint64_t signature_digest_;
  CodecMetrics metrics_;
  ShardedLruCache<std::shared_ptr<const CachedPlan>> cache_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex store_mutex_;
  std::shared_ptr<planstore::PlanStore> store_;
};

}  // namespace ppm
