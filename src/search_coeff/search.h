// Verifier-guided coefficient search (search_coeff/).
//
// search_best() replaces the old "roll random tuples until a sampled
// acceptance passes" construction path with a pruned, deterministic,
// certificate-producing search:
//
//  1. A seeded candidate stream (candidate 0 is the consecutive-powers
//     tuple alpha^0..alpha^{m+s-1}; later candidates keep a_0 = 1 and
//     draw the remaining exponents biased toward residues coprime with
//     2^w - 1, i.e. high multiplicative order) is generated up to
//     `candidate_budget`, deduplicated.
//  2. Each candidate is *prescreened* by cheap early-exit rank checks —
//     the encoding scenario plus a Fisher–Yates-sampled batch of
//     maximal failure scenarios through the incremental RankOracle —
//     fanned out across a ThreadPool. No plan is ever built for a
//     candidate that fails a rank check.
//  3. Survivors are certified exhaustively (certify_tuple) in stream
//     order until `certify_budget` tuples hold a certificate.
//  4. The certified set is reduced to its Pareto frontier under
//     (worst-case critical path, worst-case work); `best` is the
//     lexicographically smallest frontier member by (critical path,
//     work, tuple), so results are deterministic for a fixed seed
//     regardless of thread count.
//
// certify_first() is the cheap construction-path variant: same stream,
// same prescreen, but it stops at the first tuple that certifies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gf/galois_field.h"
#include "search_coeff/certify.h"

namespace ppm::coeffsearch {

struct SearchOptions {
  /// Candidate tuples generated and prescreened.
  std::uint64_t candidate_budget = 512;
  /// Prescreen survivors certified exhaustively (search_best only).
  std::uint64_t certify_budget = 4;
  /// Fisher–Yates-sampled maximal scenarios rank-checked per candidate
  /// before any plan is built.
  std::uint64_t prescreen_scenarios = 48;
  /// Candidate-stream seed; the stream is deterministic in
  /// (geometry, seed).
  std::uint64_t seed = 0;
  /// Prescreen fan-out width; 0 = auto. Results are independent of it.
  unsigned threads = 0;
  /// Proof strength applied to survivors.
  CertifyOptions certify;
};

struct CertifiedCandidate {
  std::vector<gf::Element> tuple;
  Certificate cert;
};

struct SearchResult {
  bool found = false;
  CertifiedCandidate best;  ///< meaningful only when found
  /// Pareto frontier under (worst critical path, worst work), sorted by
  /// the deterministic tie-break order; contains `best` first.
  std::vector<CertifiedCandidate> pareto;
  std::uint64_t candidates_considered = 0;
  std::uint64_t rank_pruned = 0;  ///< killed by the prescreen
  std::uint64_t certified = 0;
  std::uint64_t refuted = 0;  ///< survived prescreen, failed certification
  std::string reason;         ///< set when !found
};

/// Pareto-best certified tuples for `g`. Deterministic for fixed
/// (geometry, options). Throws std::invalid_argument for degenerate
/// geometries.
SearchResult search_best(const Geometry& g, const SearchOptions& opts = {});

/// First tuple in the candidate stream that certifies — the
/// construction path. Same prescreen pruning as search_best. The
/// result's `certified` flag is false (with `reason` set) only if the
/// whole candidate budget is exhausted without a proof.
CertifyResult certify_first(const Geometry& g, const SearchOptions& opts = {});

}  // namespace ppm::coeffsearch
