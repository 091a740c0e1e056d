// Persistent store for coefficient certificates (search_coeff/), with
// the same zero-trust contract as the plan store (plan_store/). Records
// are the certificate JSON sealed as `PPMCERT <version> <crc32> <len>`
// in a SealedDir (common/sealed_dir.h: durable publish, quarantine, gc).
//
// Nothing on disk is ever trusted. load() checks the seal, parses the
// record, then *re-runs the entire certification* with the record's own
// proof options (certify_tuple is deterministic) and demands exact
// semantic equality with the record. Any mismatch — torn write, bit rot,
// tampering, an oracle version bump — quarantines the record and reports
// kRejected; the caller re-searches and overwrites. A served tuple is
// therefore always one this process proved itself. Records weaker than
// the caller's required proof strength (smaller exact/stratified/plan
// budgets) are rejected the same way: passing a weak re-proof must not
// satisfy a strong requirement.
//
// SdCode/PmdsCode construction consumes this store through
// default_cert_store() (settable in-process, or via the PPM_CERT_DIR
// environment variable), so a fleet can certify once and restart
// cheaply — paying one re-proof instead of a full search.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sealed_dir.h"
#include "search_coeff/certify.h"

namespace ppm::coeffsearch {

class CertStore {
 public:
  /// Opens (and creates, if needed) `directory`.
  explicit CertStore(std::filesystem::path directory);

  const std::filesystem::path& directory() const { return dir_.directory(); }

  /// Seals and durably publishes `cert`, overwriting any previous
  /// record for its geometry. Returns false on I/O failure.
  bool put(const Certificate& cert);

  using LoadResult = SealedDir::LoadResult;

  /// Zero-trust load of the record for `g`: seal check, parse,
  /// geometry match, minimum proof strength vs `require`, then a full
  /// re-certification compared exactly against the record. On success
  /// `out` receives the (re-proven) certificate; on any failure the
  /// record is quarantined and kRejected returned.
  LoadResult load(const Geometry& g, const CertifyOptions& require,
                  Certificate* out, std::string* why = nullptr);

  using Entry = SealedDir::Entry;
  std::vector<Entry> list() const;

  using CheckReport = SealedDir::CheckReport;
  /// Re-proves every record in the store (each with its own recorded
  /// options); failing records are quarantined.
  CheckReport check();

  using GcReport = SealedDir::GcReport;
  /// Removes quarantined records and stale temp files, keeping the
  /// newest `keep_quarantined` quarantined files for forensics.
  GcReport gc(std::size_t keep_quarantined = 0);

  static std::string record_filename(const Geometry& g);

 private:
  // The zero-trust gate for one payload: parse, geometry match, minimum
  // proof strength, full re-certification. On success, when `out` is
  // non-null, the re-proven certificate lands there.
  static SealedDir::Accept reprove(const Geometry* expect_geometry,
                                   const CertifyOptions* require,
                                   Certificate* out);

  SealedDir dir_;
  mutable std::mutex mutex_;
};

/// The store sd_coefficients() consults. Defaults to a store over
/// $PPM_CERT_DIR when that is set, nullptr (no persistence) otherwise.
std::shared_ptr<CertStore> default_cert_store();

/// Overrides the default store (nullptr detaches). Thread-safe.
void set_default_cert_store(std::shared_ptr<CertStore> store);

}  // namespace ppm::coeffsearch
