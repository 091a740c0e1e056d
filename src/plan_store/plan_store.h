// Persistent plan store (ppm::planstore): verified decode plans on disk.
//
// A decode plan is a pure function of (code signature, faulty set), yet
// every process restart rebuilds all of them — inversion, verification,
// hazard analysis, repeated per fleet node. This subsystem serializes
// verified CachedPlans into a versioned binary format, one record file
// per plan under a store directory, so a restarted (or sibling) process
// can warm its sharded plan cache from disk instead of rebuilding, and a
// fleet can share one precomputed plan space.
//
// Record format: one sealed record per plan (common/sealed_dir.h), a
// "PPMPLAN <version> <crc32 hex> <len>\n" header over a little-endian
// binary payload — identity (code-signature digest and text, field
// width, faulty set), the PlanProfile, then every sub-plan.
// docs/PLAN_STORE.md §2 lays it out by field.
//
// ZERO-TRUST LOAD CONTRACT: bytes from disk are never executed on faith.
// Every load re-proves the record — CRC + structural parse with bounds
// and field-range checks, then planverify::verify_plan (independent
// algebraic recomputation) and hazard::analyze_plan (race-freedom for all
// interleavings), plus a cross-check of the stored profile against the
// fresh analysis. A record failing ANY step is quarantined — renamed to
// "<name>.quarantined" (removed if that rename fails), never served — and
// the caller rebuilds from the code itself.
// docs/PLAN_STORE.md documents the format and the contract; `ppm_cli
// store {build,ls,check,gc}` operates stores offline.
//
// Thread-safety: all public methods are safe to call concurrently; file
// operations serialize on one internal mutex (loads and stores are rare
// — cache misses and warms — so a single lock is not a bottleneck).
// Cross-process safety comes from the durable write-rename publish:
// readers only ever observe complete records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "codes/erasure_code.h"
#include "common/sealed_dir.h"
#include "decode/scenario.h"

namespace ppm::planstore {

/// On-disk format version; bumped on any layout change. Records with a
/// different version never parse (they quarantine and rebuild). v3 moved
/// to the shared text seal; v4 dropped the optimized-XOR-schedule section
/// v2 had appended to the payload.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Serialize one verified plan into a self-contained sealed record (see
/// the format comment above).
std::vector<std::uint8_t> serialize_plan(const ErasureCode& code,
                                         const FailureScenario& scenario,
                                         const CachedPlan& plan);

/// A structurally parsed record. `plan` carries a default profile — the
/// stored one is returned separately as UNTRUSTED data for cross-checking
/// against a fresh hazard analysis; PlanStore::load installs the fresh
/// profile after re-verification.
struct StoredPlan {
  FailureScenario scenario;
  CachedPlan plan;
  PlanProfile stored_profile;
};

/// Structural parse of a record: magic, version, CRC, bounds, field-range
/// and scenario sanity checks — NO algebraic trust (that is the loader's
/// planverify/hazard pass). std::nullopt on any inconsistency, including
/// a signature digest or field width not matching `code` (a stale or
/// foreign record). `error`, when non-null, receives a short reason.
std::optional<StoredPlan> deserialize_plan(std::span<const std::uint8_t> bytes,
                                           const ErasureCode& code,
                                           std::string* error = nullptr);

/// Directory-backed store: one record file per (code signature, faulty
/// set), named "sig<digest hex>-f<ids>.plan".
class PlanStore {
 public:
  /// Opens (and creates, if needed) `directory`. Throws
  /// std::filesystem::filesystem_error when the directory cannot be
  /// created.
  explicit PlanStore(std::filesystem::path directory);

  const std::filesystem::path& directory() const { return dir_.directory(); }

  /// Serialize `plan` and publish it durably (SealedDir::publish).
  /// Overwrites an existing record for the same key. Returns false on
  /// I/O failure (the caller's in-memory plan is unaffected).
  bool put(const ErasureCode& code, const FailureScenario& scenario,
           const CachedPlan& plan);

  /// kLoaded: re-proved sound, *out is the verified plan; kMissing: no
  /// record for this key; kRejected: failed the zero-trust gate and was
  /// quarantined.
  using LoadResult = SealedDir::LoadResult;

  /// Zero-trust load of the record for (code, scenario): parse, then
  /// planverify::verify_plan + hazard::analyze_plan + profile cross-check.
  /// On success the plan's profile is the freshly recomputed one. `why`,
  /// when non-null, receives the rejection reason for kRejected;
  /// `renamed`, when non-null, whether a rejected record was renamed
  /// aside (false when that failed and it was removed instead).
  LoadResult load(const ErasureCode& code, const FailureScenario& scenario,
                  std::shared_ptr<const CachedPlan>* out,
                  std::string* why = nullptr, bool* renamed = nullptr);

  /// Result of a bulk zero-trust load of every record for `code`.
  struct BulkLoad {
    std::vector<std::pair<FailureScenario, std::shared_ptr<const CachedPlan>>>
        plans;                 ///< every record that re-proved sound
    std::size_t rejected = 0;  ///< records that failed the zero-trust gate
    std::size_t renamed = 0;   ///< of those, records renamed aside
  };
  BulkLoad load_all(const ErasureCode& code);

  using Entry = SealedDir::Entry;
  /// Every record and quarantined file in the store, sorted by name.
  std::vector<Entry> list() const;

  /// Re-verify every record for `code` through the zero-trust gate.
  using CheckReport = SealedDir::CheckReport;
  CheckReport check(const ErasureCode& code);

  /// Remove orphaned temporaries and all but the newest
  /// `keep_quarantined` quarantined files (SealedDir::gc); healthy
  /// records are never touched.
  using GcReport = SealedDir::GcReport;
  GcReport gc(std::size_t keep_quarantined = 0);

  /// Canonical record file name for a key.
  static std::string record_filename(const ErasureCode& code,
                                     const FailureScenario& scenario);

 private:
  // The zero-trust gate for one payload (format comment above). On
  // success, when `out` is non-null, installs the re-proved plan there.
  static SealedDir::Accept reprove(const ErasureCode& code,
                                   const FailureScenario* expected,
                                   std::shared_ptr<const CachedPlan>* out,
                                   FailureScenario* scenario_out);

  SealedDir dir_;
  mutable std::mutex mutex_;
  std::size_t renamed_ = 0;  ///< quarantine renames so far (under mutex_)
};

}  // namespace ppm::planstore
