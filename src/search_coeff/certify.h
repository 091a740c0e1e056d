// Certification oracle for SD/PMDS coefficient tuples (search_coeff/).
//
// certify_tuple() proves a tuple correct without executing a single
// decode: every canonical worst-case scenario class (scenario_enum.h)
// must keep H full column rank on the faulty blocks (incremental
// RankOracle sweep, ThreadPool fan-out, deterministic early exit), and
// a deterministic subset of classes — all of them when the universe
// fits the plan budget — is additionally driven through the full
// static-analysis stack: Codec::plan_for builds the plan,
// planverify::verify_plan re-proves it symbolically, and the plan's
// cost and hazard profile (mult_XORs / work / critical path / max width)
// is accumulated per stratum and into the certificate's worst case. The
// result is a machine-checkable Certificate that records the geometry,
// the tuple, the closed-form census, every stratum proven and the proof
// options — enough for a later process to re-run the identical proofs
// and compare outcomes exactly (cert_store.h's zero-trust load contract).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gf/galois_field.h"
#include "search_coeff/scenario_enum.h"

namespace ppm::coeffsearch {

/// Bumped whenever the on-disk JSON layout, the enumeration model or
/// the proof semantics change; mismatching records are quarantined and
/// re-certified rather than trusted. Format 2 dropped the superoptimizer
/// proof option and the profiles' post-superoptimizer op count.
inline constexpr std::uint64_t kCertFormatVersion = 2;
inline constexpr std::uint64_t kEnumeratorVersion = 1;
inline constexpr std::uint64_t kCertifierVersion = 1;

/// Worst-case plan profile over a set of proven scenario classes
/// (per-metric maxima).
struct ClassProfile {
  std::uint64_t cost = 0;
  std::uint64_t work = 0;
  std::uint64_t critical_path = 0;
  std::uint64_t max_width = 0;

  bool operator==(const ClassProfile&) const = default;
};

/// Per-stratum proof aggregate; a stratum is (z, descending per-row
/// sector loads).
struct StratumReport {
  std::size_t z = 0;
  std::vector<std::size_t> loads;
  std::uint64_t classes = 0;       ///< canonical classes rank-proven
  std::uint64_t members = 0;       ///< orbit members those classes cover
  std::uint64_t plans_proven = 0;  ///< classes also plan-proven
  /// Rank-deficient classes/members in this stratum (characterization
  /// mode only; always 0 for a perfect tuple).
  std::uint64_t deficient_classes = 0;
  std::uint64_t deficient_members = 0;
  ClassProfile worst;

  bool operator==(const StratumReport&) const = default;
};

struct CertifyOptions {
  /// Prove every canonical class when the census stays at or below
  /// this; otherwise fall back to the deterministic stratified cover
  /// (recorded honestly as exact == false).
  std::uint64_t exact_class_limit = 1'500'000;
  std::uint64_t stratified_classes = 60'000;
  /// Classes driven through plan_for + planverify + hazard. All of them
  /// when the universe fits the budget, else a deterministic stride.
  /// 0 skips plan proofs entirely (pure rank certification).
  std::uint64_t plan_budget = 384;
  /// Characterize instead of refute: rank-deficient scenario classes
  /// are *counted* (Certificate::deficient_*) rather than aborting the
  /// sweep, and stride classes that are undecodable are skipped by the
  /// plan proofs. Some shipped geometries (e.g. SD^{2,2}_{8,8} over
  /// GF(2^8)) provably admit no perfect tuple, matching the gaps in
  /// Plank's published SD tables; this mode lets the construction path
  /// serve the historical tuple with its deficiencies on the record
  /// instead of silently pretending they do not exist. `certified`
  /// then means "the exhaustive characterization completed", and the
  /// re-proof equality check still pins every recorded count. Not
  /// recorded in the certificate: re-proofs always run with it on,
  /// which is observationally identical for perfect tuples.
  bool allow_deficient = false;
  /// Rank-sweep fan-out width; 0 = auto. Never recorded: results are
  /// independent of it by construction.
  unsigned threads = 0;
};

/// The machine-checkable record. Equality is semantic: a re-run of
/// certify_tuple with the recorded options must reproduce it exactly.
struct Certificate {
  Geometry geometry;
  std::string family = "sd";
  std::vector<gf::Element> tuple;

  // Proof options (re-proof reruns with exactly these).
  std::uint64_t exact_class_limit = 0;
  std::uint64_t stratified_classes = 0;
  std::uint64_t plan_budget = 0;

  bool exact = true;
  std::uint64_t maximal = 0;    ///< closed-form universe size
  std::uint64_t canonical = 0;  ///< closed-form canonical class count
  std::uint64_t enumerated = 0;
  std::uint64_t rank_checked = 0;
  std::uint64_t plans_proven = 0;
  /// Rank-deficient classes/members found (allow_deficient mode; a
  /// perfect tuple records 0/0). A nonzero count is an honest
  /// characterization of a best-effort tuple, never a silent pass.
  std::uint64_t deficient_classes = 0;
  std::uint64_t deficient_members = 0;

  ClassProfile encoding;
  ClassProfile worst_case;
  std::vector<StratumReport> strata;  ///< sorted by (z, loads)

  bool operator==(const Certificate&) const = default;

  std::string to_json() const;
};

/// Parses a Certificate from its to_json() form. Rejects unknown
/// format/oracle versions. Returns false (and fills `why`) on any
/// structural problem; parsing alone never makes a record trusted —
/// see CertStore::load for the re-proof contract.
bool parse_certificate(std::string_view json, Certificate* out,
                       std::string* why = nullptr);

struct CertifyResult {
  bool certified = false;
  Certificate cert;  ///< meaningful only when certified
  std::string reason;
  /// Faulty blocks of the first failing scenario (enumeration order),
  /// empty when certified.
  std::vector<std::size_t> first_failure;
};

/// Proves (or refutes) one tuple for one geometry. Deterministic for
/// fixed (geometry, tuple, options) regardless of thread count.
/// Throws std::invalid_argument for degenerate geometries.
CertifyResult certify_tuple(const Geometry& g,
                            std::span<const gf::Element> tuple,
                            const CertifyOptions& opts = {});

}  // namespace ppm::coeffsearch
