#include "codes/coeff_search.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "common/metrics.h"
#include "search_coeff/cert_store.h"
#include "search_coeff/search.h"

namespace ppm {

namespace {

using Key = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                       unsigned>;

std::mutex g_cache_mutex;
// Serializes the miss path so concurrent constructions of the same
// geometry run one certification, not eight.
std::mutex g_search_mutex;

std::map<Key, std::vector<gf::Element>>& cache() {
  static std::map<Key, std::vector<gf::Element>> c;
  return c;
}

/// Proof strength applied at code construction. The exact/stratified
/// limits are lower than the CLI defaults (CertifyOptions) so that
/// constructing a code stays interactive even for the largest paper
/// geometries; the `search` CI job re-certifies every shipped geometry
/// at full strength. A persisted record must be at least this strong to
/// be served (CertStore::load's minimum-strength gate).
coeffsearch::CertifyOptions construction_options() {
  coeffsearch::CertifyOptions opts;
  opts.exact_class_limit = 200'000;
  opts.stratified_classes = 20'000;
  opts.plan_budget = 32;
  return opts;
}

}  // namespace

bool validate_sd_coefficients(std::size_t n, std::size_t r, std::size_t m,
                              std::size_t s, unsigned w,
                              std::span<const gf::Element> coeffs) {
  const coeffsearch::Geometry g{n, r, m, s, w};
  coeffsearch::validate_geometry(g);  // throws on degenerate geometries
  if (coeffs.size() != m + s) return false;
  // Rank-only certification: exhaustive (up to the construction-path
  // class limits) but without plan proofs — callers validating foreign
  // tuples want the decodability verdict, not a plan profile.
  coeffsearch::CertifyOptions opts = construction_options();
  opts.plan_budget = 0;
  return coeffsearch::certify_tuple(g, coeffs, opts).certified;
}

std::vector<gf::Element> sd_coefficients(std::size_t n, std::size_t r,
                                         std::size_t m, std::size_t s,
                                         unsigned w) {
  const coeffsearch::Geometry g{n, r, m, s, w};
  coeffsearch::validate_geometry(g);
  SearchMetrics& metrics = search_metrics();
  const Key key{n, r, m, s, w};
  {
    const std::scoped_lock lock(g_cache_mutex);
    auto it = cache().find(key);
    if (it != cache().end()) {
      metrics.cache_hits.add();
      return it->second;
    }
  }

  const std::scoped_lock search_lock(g_search_mutex);
  {
    // Double-check: another thread may have finished this geometry
    // while we waited on the search lock.
    const std::scoped_lock lock(g_cache_mutex);
    auto it = cache().find(key);
    if (it != cache().end()) {
      metrics.cache_hits.add();
      return it->second;
    }
  }
  metrics.searches.add();

  const coeffsearch::CertifyOptions require = construction_options();
  const std::shared_ptr<coeffsearch::CertStore> store =
      coeffsearch::default_cert_store();
  coeffsearch::Certificate cert;
  bool have_cert = false;

  // Zero-trust store hit: the record is re-proven in full before a
  // single byte of it is served (see cert_store.h).
  if (store != nullptr &&
      store->load(g, require, &cert) ==
          coeffsearch::CertStore::LoadResult::kLoaded) {
    have_cert = true;
  }

  if (!have_cert) {
    // Phase 1: look for a *perfect* tuple — one that certifies with
    // zero deficient classes.
    coeffsearch::SearchOptions opts;
    opts.candidate_budget = 96;
    opts.certify = require;
    coeffsearch::CertifyResult found = coeffsearch::certify_first(g, opts);
    if (!found.certified) {
      // Phase 2: no perfect tuple within budget. Several shipped
      // geometries (e.g. SD^{2,2}_{8,8} over GF(2^8)) provably have
      // none — matching the gaps in Plank's published tables. Serve
      // the historical consecutive-powers tuple, but attach its full
      // exhaustive characterization so the deficiency is on the
      // record instead of silently sampled away.
      const gf::Field& f = gf::field(w);
      std::vector<gf::Element> fallback(m + s);
      for (std::size_t q = 0; q < fallback.size(); ++q) {
        fallback[q] = f.exp2(q);
      }
      coeffsearch::CertifyOptions characterize = require;
      characterize.allow_deficient = true;
      found = coeffsearch::certify_tuple(g, fallback, characterize);
      if (!found.certified) {
        throw std::runtime_error("sd_coefficients: " + found.reason);
      }
    }
    cert = std::move(found.cert);
    have_cert = true;
    if (store != nullptr) store->put(cert);
  }

  {
    const std::scoped_lock lock(g_cache_mutex);
    cache().emplace(key, cert.tuple);
  }
  return cert.tuple;
}

std::size_t sd_coefficient_cache_entries() {
  const std::scoped_lock lock(g_cache_mutex);
  return cache().size();
}

void clear_sd_coefficient_cache() {
  const std::scoped_lock lock(g_cache_mutex);
  cache().clear();
}

}  // namespace ppm
