#include "search_coeff/cert_store.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/metrics.h"

namespace ppm::coeffsearch {

CertStore::CertStore(std::filesystem::path directory)
    : dir_(std::move(directory), "PPMCERT", kCertFormatVersion, ".cert",
           [] { search_metrics().cert_quarantined.add(); }) {}

std::string CertStore::record_filename(const Geometry& g) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "sd-n%zu-r%zu-m%zu-s%zu-w%u.cert", g.n, g.r,
                g.m, g.s, g.w);
  return buf;
}

bool CertStore::put(const Certificate& cert) {
  const std::string payload = cert.to_json();
  std::scoped_lock lock(mutex_);
  if (!dir_.publish(record_filename(cert.geometry), payload)) return false;
  search_metrics().cert_stores.add();
  return true;
}

SealedDir::Accept CertStore::reprove(const Geometry* expect_geometry,
                                     const CertifyOptions* require,
                                     Certificate* out) {
  return [expect_geometry, require, out](std::string_view payload,
                                         std::string* why) {
    Certificate record;
    if (!parse_certificate(payload, &record, why)) return false;
    const auto fail = [why](const std::string& reason) {
      *why = reason;
      return false;
    };
    if (record.family != "sd") return fail("unknown family");
    if (expect_geometry != nullptr &&
        !(record.geometry == *expect_geometry)) {
      return fail("geometry mismatch");
    }
    if (require != nullptr) {
      if (record.exact_class_limit < require->exact_class_limit ||
          record.stratified_classes < require->stratified_classes ||
          record.plan_budget < require->plan_budget) {
        return fail("recorded proof weaker than required");
      }
    }
    // Zero trust: re-run the full certification with the record's own
    // options and demand exact equality. Anything the record claims that
    // the oracles do not reproduce — census, strata, profiles, the tuple
    // itself — quarantines it.
    CertifyOptions reproof;
    reproof.exact_class_limit = record.exact_class_limit;
    reproof.stratified_classes = record.stratified_classes;
    reproof.plan_budget = record.plan_budget;
    // Characterization mode is observationally identical for perfect
    // tuples and required to reproduce best-effort records; the exact
    // equality check below pins the recorded deficiency counts either
    // way, so a record claiming perfection for an imperfect tuple (or
    // vice versa) still quarantines.
    reproof.allow_deficient = true;
    CertifyResult fresh;
    try {
      fresh = certify_tuple(record.geometry, record.tuple, reproof);
    } catch (const std::invalid_argument&) {
      return fail("recorded geometry is degenerate");
    }
    if (!fresh.certified) {
      return fail("re-proof refuted the record: " + fresh.reason);
    }
    if (!(fresh.cert == record)) {
      return fail("re-proof disagrees with the record");
    }
    if (out != nullptr) *out = std::move(fresh.cert);
    return true;
  };
}

CertStore::LoadResult CertStore::load(const Geometry& g,
                                      const CertifyOptions& require,
                                      Certificate* out,
                                      std::string* why) {
  std::scoped_lock lock(mutex_);
  const LoadResult result = dir_.load(dir_.directory() / record_filename(g),
                                      reprove(&g, &require, out), why);
  if (result == LoadResult::kLoaded) search_metrics().cert_loads.add();
  if (result == LoadResult::kRejected) {
    search_metrics().cert_load_failures.add();
  }
  return result;
}

std::vector<CertStore::Entry> CertStore::list() const {
  std::scoped_lock lock(mutex_);
  return dir_.list();
}

CertStore::CheckReport CertStore::check() {
  std::scoped_lock lock(mutex_);
  const CheckReport report =
      dir_.check({}, reprove(nullptr, nullptr, nullptr));
  search_metrics().cert_loads.add(report.verified);
  search_metrics().cert_load_failures.add(report.quarantined);
  return report;
}

CertStore::GcReport CertStore::gc(std::size_t keep_quarantined) {
  std::scoped_lock lock(mutex_);
  return dir_.gc(keep_quarantined);
}

namespace {

std::mutex g_default_store_mutex;
std::shared_ptr<CertStore> g_default_store;
bool g_default_store_initialized = false;

}  // namespace

std::shared_ptr<CertStore> default_cert_store() {
  std::scoped_lock lock(g_default_store_mutex);
  if (!g_default_store_initialized) {
    g_default_store_initialized = true;
    if (const char* dir = std::getenv("PPM_CERT_DIR");
        dir != nullptr && *dir != '\0') {
      g_default_store = std::make_shared<CertStore>(dir);
    }
  }
  return g_default_store;
}

void set_default_cert_store(std::shared_ptr<CertStore> store) {
  std::scoped_lock lock(g_default_store_mutex);
  g_default_store_initialized = true;
  g_default_store = std::move(store);
}

}  // namespace ppm::coeffsearch
