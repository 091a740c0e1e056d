// Codec: the stripe-store-facing facade.
//
// A storage system rarely decodes one stripe: a disk failure touches the
// same block positions of *every* stripe in the placement group. The codec
// therefore (a) caches decode plans per failure scenario — the matrix
// bookkeeping (log table, partition, inversions) is paid once and reused
// across stripes — and (b) runs every decode, encode and batch decode
// through one stripe×slice fan-out on its worker pool
// (CachedPlan::execute_sliced, decode/plan.h). Each task executes
// a stripe's whole cached plan (the O1 groups, then H_rest) on one
// contiguous byte range of every block, one SubPlan::kTileBytes tile at a
// time so H_rest finds the tiles the groups read still in L2: region ops
// are element-wise, so slices and tiles are independent, PPM keeps its
// min(C3, C4) op count, and its serial H_rest tail is split across the
// cores like everything else. Codec owns only the slice count: a
// batch of at least `threads` stripes runs one slice per stripe, the
// classic inter-stripe parallelism of [36]-[38]; a smaller batch, or one
// stripe, is cut into ⌈threads / stripes⌉ slices per stripe, as long as
// each slice carries kMinSliceWork. Decodes over fallible reads run one
// recovery ladder (decode_ladder, codec/resilient.h) under a serial or a
// hedged fetch stage.
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
#include "decode/scenario.h"
#include "parallel/thread_pool.h"

namespace ppm {

namespace planstore {
class PlanStore;
}  // namespace planstore

namespace io {
class BlockSource;
}  // namespace io

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
  /// decode_ladder with the serial stage, which reads survivors through
  /// `source` into the caller's `blocks` one at a time, in plan order,
  /// with bounded retries + exponential backoff under one per-decode
  /// deadline. When `expected_crc` has one CRC32 per block, survivor
  /// reads and recovered blocks are integrity-checked against it; any
  /// other span is ignored. Never throws on I/O faults; see
  /// codec/resilient.h and docs/ROBUSTNESS.md.
  ResilientResult decode_resilient(const FailureScenario& scenario,
                                   io::BlockSource& source,
                                   std::uint8_t* const* blocks,
                                   std::size_t block_bytes,
                                   const ResilienceOptions& options = {},
                                   std::span<const std::uint32_t>
                                       expected_crc = {});

  /// The recovery ladder (retry → escalate → degrade → verify) over any
  /// fetch stage, into the stage's blocks; decode_resilient and
  /// serve::decode_overlapped both run it. A `block_bytes` that splits a
  /// symbol is refused before any read, every faulty block reported
  /// unrecoverable. Accounts the decode in metrics() once.
  ResilientResult decode_ladder(const FailureScenario& scenario,
                                FetchStage& stage);

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

  /// Cut every stripe into the slices this codec's policy picks and run
  /// `plan` on them through CachedPlan::execute_sliced, on the worker
  /// pool when there is more than one task.
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
