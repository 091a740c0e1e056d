// The coefficient-certification oracle (search_coeff/): scenario
// enumeration and census identities, exhaustive certification of the
// paper tuple, refutation, deficiency characterization, certificate
// round-trip and the cert store's zero-trust tamper handling.
#include <gtest/gtest.h>

#include <filesystem>

#include "codes/coeff_search.h"
#include "codes/sd_code.h"
#include "common/metrics.h"
#include "search_coeff/cert_store.h"
#include "search_coeff/certify.h"
#include "search_coeff/scenario_enum.h"
#include "search_coeff/search.h"
#include "test_util.h"

namespace ppm::coeffsearch {
namespace {

constexpr Geometry kPaper{6, 4, 2, 2, 8};
const std::vector<gf::Element> kPaperTuple{1, 42, 26, 61};

// Brute-force count of maximal scenarios: every choice of m disks and
// s sector cells on the survivors. Ground truth for census().
std::uint64_t brute_force_maximal(const Geometry& g) {
  std::uint64_t count = 0;
  std::vector<std::size_t> disks;
  const auto choose_sectors = [&](auto&& self, std::size_t next,
                                  std::size_t remaining) -> void {
    if (remaining == 0) {
      ++count;
      return;
    }
    for (std::size_t cell = next; cell < g.n * g.r; ++cell) {
      const std::size_t col = cell % g.n;
      if (std::find(disks.begin(), disks.end(), col) != disks.end()) {
        continue;
      }
      self(self, cell + 1, remaining - 1);
    }
  };
  const auto choose_disks = [&](auto&& self, std::size_t next,
                                std::size_t remaining) -> void {
    if (remaining == 0) {
      choose_sectors(choose_sectors, 0, g.s);
      return;
    }
    for (std::size_t d = next; d + remaining <= g.n; ++d) {
      disks.push_back(d);
      self(self, d + 1, remaining - 1);
      disks.pop_back();
    }
  };
  choose_disks(choose_disks, 0, g.m);
  return count;
}

TEST(SearchCoeff, CensusMatchesBruteForce) {
  for (const Geometry& g :
       {Geometry{5, 3, 2, 2, 8}, Geometry{4, 4, 1, 3, 8},
        Geometry{6, 2, 3, 1, 8}, Geometry{3, 5, 1, 2, 8}}) {
    const Census c = census(g);
    EXPECT_EQ(c.maximal, brute_force_maximal(g)) << g.n << "," << g.r;
    // Canonical classes biject onto "patterns using column 0"; the rest
    // are exactly the patterns of the same geometry over n-1 columns.
    Geometry smaller = g;
    smaller.n = g.n - 1;
    const std::uint64_t tail =
        smaller.n > smaller.m &&
                smaller.s <= (smaller.n - smaller.m) * smaller.r
            ? brute_force_maximal(smaller)
            : 0;
    EXPECT_EQ(c.canonical, c.maximal - tail) << g.n << "," << g.r;
  }
}

TEST(SearchCoeff, EnumerationReproducesCensusExactly) {
  const Geometry g{5, 3, 2, 2, 8};
  const Census c = census(g);
  std::uint64_t classes = 0;
  std::uint64_t members = 0;
  const std::uint64_t visited = enumerate_classes(
      g, EnumerateOptions{}, [&](const ScenarioClass& sc) {
        ++classes;
        members += sc.members;
        // Canonical form: minimum involved column 0; orbit size is
        // n minus the maximum involved column.
        std::size_t min_col = g.n;
        std::size_t max_col = 0;
        for (const std::size_t d : sc.disks) {
          min_col = std::min(min_col, d);
          max_col = std::max(max_col, d);
        }
        for (const std::size_t cell : sc.sectors) {
          min_col = std::min(min_col, cell % g.n);
          max_col = std::max(max_col, cell % g.n);
        }
        EXPECT_EQ(min_col, 0u);
        EXPECT_EQ(sc.members, g.n - max_col);
        EXPECT_EQ(sc.disks.size(), g.m);
        EXPECT_EQ(sc.sectors.size(), g.s);
        EXPECT_EQ(sc.blocks(g).size(), g.m * g.r + g.s);
        return true;
      });
  EXPECT_EQ(visited, c.canonical);
  EXPECT_EQ(classes, c.canonical);
  EXPECT_EQ(members, c.maximal);
}

TEST(SearchCoeff, RankIsTranslationInvariant) {
  // The symmetry the enumerator quotients by: shifting a whole pattern
  // right must preserve the rank of the restricted parity-check matrix.
  const gf::Field& f = gf::field(kPaper.w);
  const Matrix h = SDCode::build_parity_check(f, kPaper.n, kPaper.r,
                                              kPaper.m, kPaper.s,
                                              kPaperTuple);
  std::size_t probed = 0;
  enumerate_classes(kPaper, EnumerateOptions{},
                    [&](const ScenarioClass& sc) {
                      const auto blocks = sc.blocks(kPaper);
                      const std::size_t base =
                          h.select_columns(blocks).rank();
                      for (std::size_t t = 1; t < sc.members; ++t) {
                        std::vector<std::size_t> shifted;
                        for (const std::size_t b : blocks) {
                          shifted.push_back(b + t);
                        }
                        EXPECT_EQ(h.select_columns(shifted).rank(), base);
                      }
                      return ++probed < 40;  // a deterministic prefix
                    });
  EXPECT_EQ(probed, 40u);
}

TEST(SearchCoeff, PaperTupleCertifiesPerfect) {
  CertifyOptions opts;
  opts.plan_budget = 2000;  // above the census: every class plan-proven
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple, opts);
  ASSERT_TRUE(res.certified) << res.reason;
  const Certificate& cert = res.cert;
  EXPECT_TRUE(cert.exact);
  EXPECT_EQ(cert.maximal, 1800u);
  EXPECT_EQ(cert.canonical, 1140u);
  EXPECT_EQ(cert.rank_checked, cert.canonical);
  EXPECT_EQ(cert.plans_proven, cert.canonical);
  EXPECT_EQ(cert.deficient_classes, 0u);
  EXPECT_EQ(cert.deficient_members, 0u);
  EXPECT_GT(cert.worst_case.critical_path, 0u);
  EXPECT_LE(cert.worst_case.critical_path, cert.worst_case.work);
  // Stratum aggregates must add up to the universe totals.
  std::uint64_t classes = 0;
  std::uint64_t members = 0;
  std::uint64_t plans = 0;
  for (const StratumReport& st : cert.strata) {
    classes += st.classes;
    members += st.members;
    plans += st.plans_proven;
    EXPECT_EQ(st.deficient_classes, 0u);
  }
  EXPECT_EQ(classes, cert.canonical);
  EXPECT_EQ(members, cert.maximal);
  EXPECT_EQ(plans, cert.plans_proven);
}

TEST(SearchCoeff, BadTupleRefutedWithWitness) {
  const CertifyResult res =
      certify_tuple(kPaper, std::vector<gf::Element>{1, 1, 1, 1});
  EXPECT_FALSE(res.certified);
  EXPECT_FALSE(res.reason.empty());
  // The witness is a concrete failing scenario: its blocks must be
  // rank-deficient under the tuple's parity-check matrix.
  ASSERT_FALSE(res.first_failure.empty());
  const gf::Field& f = gf::field(kPaper.w);
  const Matrix h = SDCode::build_parity_check(
      f, kPaper.n, kPaper.r, kPaper.m, kPaper.s,
      std::vector<gf::Element>{1, 1, 1, 1});
  EXPECT_LT(h.select_columns(res.first_failure).rank(),
            res.first_failure.size());
}

TEST(SearchCoeff, DeficiencyIsCharacterizedNotHidden) {
  // The historical consecutive-powers tuple for SD(6,6,2,2) is provably
  // deficient — the sampled validator this PR replaces never noticed.
  const Geometry g{6, 6, 2, 2, 8};
  const std::vector<gf::Element> legacy{1, 2, 4, 8};
  EXPECT_FALSE(certify_tuple(g, legacy).certified);

  CertifyOptions allow;
  allow.allow_deficient = true;
  const CertifyResult res = certify_tuple(g, legacy, allow);
  ASSERT_TRUE(res.certified) << res.reason;
  EXPECT_GT(res.cert.deficient_classes, 0u);
  EXPECT_GE(res.cert.deficient_members, res.cert.deficient_classes);
  EXPECT_EQ(res.cert.rank_checked, res.cert.canonical);
  std::uint64_t stratum_deficient = 0;
  for (const StratumReport& st : res.cert.strata) {
    stratum_deficient += st.deficient_classes;
  }
  EXPECT_EQ(stratum_deficient, res.cert.deficient_classes);
}

TEST(SearchCoeff, StratifiedSweepIsDeterministic) {
  // Force the stratified fallback and vary the thread count: the
  // certificate must be bit-for-bit identical (the zero-trust store
  // depends on this).
  const Geometry g{6, 8, 2, 2, 8};
  CertifyOptions a;
  a.exact_class_limit = 100;
  a.stratified_classes = 600;
  a.plan_budget = 16;
  a.threads = 1;
  CertifyOptions b = a;
  b.threads = 4;
  const std::vector<gf::Element> tuple{1, 31, 248, 202};
  const CertifyResult ra = certify_tuple(g, tuple, a);
  const CertifyResult rb = certify_tuple(g, tuple, b);
  ASSERT_TRUE(ra.certified) << ra.reason;
  ASSERT_TRUE(rb.certified) << rb.reason;
  EXPECT_FALSE(ra.cert.exact);
  EXPECT_EQ(ra.cert, rb.cert);
  EXPECT_EQ(ra.cert.to_json(), rb.cert.to_json());
}

TEST(SearchCoeff, CertificateJsonRoundTrips) {
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  Certificate parsed;
  std::string why;
  ASSERT_TRUE(parse_certificate(res.cert.to_json(), &parsed, &why)) << why;
  EXPECT_EQ(parsed, res.cert);
}

TEST(SearchCoeff, ParserRejectsVersionSkew) {
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  std::string json = res.cert.to_json();
  const std::string from =
      "\"format\":" + std::to_string(kCertFormatVersion);
  json.replace(json.find(from), from.size(), "\"format\":999");
  Certificate parsed;
  std::string why;
  EXPECT_FALSE(parse_certificate(json, &parsed, &why));
  EXPECT_FALSE(why.empty());
}

TEST(SearchCoeff, DegenerateGeometriesThrow) {
  EXPECT_THROW(validate_geometry(Geometry{4, 4, 0, 1, 8}),
               std::invalid_argument);
  EXPECT_THROW(validate_geometry(Geometry{4, 4, 4, 1, 8}),
               std::invalid_argument);
  EXPECT_THROW(validate_geometry(Geometry{4, 2, 3, 3, 8}),
               std::invalid_argument);
  EXPECT_THROW(validate_geometry(Geometry{24, 16, 2, 2, 8}),
               std::invalid_argument);  // field too small for n*r
  EXPECT_THROW(certify_tuple(Geometry{4, 4, 0, 1, 8},
                             std::vector<gf::Element>{1}),
               std::invalid_argument);
}

TEST(SearchCoeff, SearchBeatsOrMatchesPaperTuple) {
  const CertifyResult paper = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(paper.certified);
  SearchOptions opts;
  opts.candidate_budget = 64;
  opts.certify_budget = 2;
  const SearchResult res = search_best(kPaper, opts);
  ASSERT_TRUE(res.found) << res.reason;
  EXPECT_EQ(res.best.cert.deficient_classes, 0u);
  EXPECT_LE(res.best.cert.worst_case.critical_path,
            paper.cert.worst_case.critical_path);
  EXPECT_FALSE(res.pareto.empty());
  // Determinism: the same options reproduce the same winner.
  const SearchResult again = search_best(kPaper, opts);
  ASSERT_TRUE(again.found);
  EXPECT_EQ(again.best.tuple, res.best.tuple);
  EXPECT_EQ(again.best.cert, res.best.cert);
}

class CertStoreTest : public ::testing::Test {
 protected:
  test::TempDir tmp_{
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const std::filesystem::path dir_ = tmp_.path();
};

TEST_F(CertStoreTest, PutLoadRoundTrip) {
  CertStore store(dir_);
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  ASSERT_TRUE(store.put(res.cert));
  Certificate out;
  CertifyOptions require;  // defaults match the recorded options
  EXPECT_EQ(store.load(kPaper, require, &out),
            CertStore::LoadResult::kLoaded);
  EXPECT_EQ(out, res.cert);
  EXPECT_EQ(store.load(Geometry{6, 6, 2, 2, 8}, require, &out),
            CertStore::LoadResult::kMissing);
}

TEST_F(CertStoreTest, WeakerRecordThanRequiredIsRejected) {
  CertStore store(dir_);
  CertifyOptions weak;
  weak.plan_budget = 8;
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple, weak);
  ASSERT_TRUE(res.certified);
  ASSERT_TRUE(store.put(res.cert));
  Certificate out;
  CertifyOptions require;
  require.plan_budget = 384;
  std::string why;
  EXPECT_EQ(store.load(kPaper, require, &out, &why),
            CertStore::LoadResult::kRejected);
  EXPECT_NE(why.find("weaker"), std::string::npos) << why;
}

TEST_F(CertStoreTest, CrcResealedTamperIsQuarantinedAndRecertified) {
  CertStore store(dir_);
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  ASSERT_TRUE(store.put(res.cert));
  const std::filesystem::path path =
      dir_ / CertStore::record_filename(kPaper);

  // Tamper with a *claim* — flip the recorded deficiency count — and
  // RE-SEAL with a correct CRC, so only the semantic re-proof can
  // catch it. This models an adversarial (not accidental) edit; note a
  // CRC-level flip without resealing is already caught by unseal().
  test::reseal(path, kCertFormatVersion, [](std::string& payload) {
    const std::string from = "\"deficient_classes\":0";
    const std::size_t at = payload.find(from);
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, from.size(), "\"deficient_classes\":1");
  });

  // The seal verifies, the parse succeeds — but the zero-trust re-proof
  // disagrees with the record, so the load quarantines it.
  Certificate out;
  CertifyOptions require;
  std::string why;
  EXPECT_EQ(store.load(kPaper, require, &out, &why),
            CertStore::LoadResult::kRejected);
  EXPECT_NE(why.find("disagrees"), std::string::npos) << why;
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(
      path.string() + ".quarantined"));

  // Fresh re-certification repairs the store; the quarantined copy is
  // swept by gc.
  ASSERT_TRUE(store.put(res.cert));
  EXPECT_EQ(store.load(kPaper, require, &out),
            CertStore::LoadResult::kLoaded);
  EXPECT_EQ(out, res.cert);
  const auto check = store.check();
  EXPECT_EQ(check.checked, 1u);
  EXPECT_EQ(check.verified, 1u);
  const auto gc = store.gc();
  EXPECT_EQ(gc.removed_quarantined, 1u);
  EXPECT_FALSE(
      std::filesystem::exists(path.string() + ".quarantined"));
}

TEST_F(CertStoreTest, FormatOneRecordIsQuarantinedAndRecertified) {
  // A format-1 certificate, sealed as version 1, is rejected at the seal
  // before any field is read (format 1 also carried two fields format 2
  // dropped). The construction path quarantines it, re-certifies the
  // geometry and publishes a current record in its place.
  const auto store = std::make_shared<CertStore>(dir_);
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  std::string json = res.cert.to_json();
  const std::string format =
      "\"format\":" + std::to_string(kCertFormatVersion);
  json.replace(json.find(format), format.size(), "\"format\":1");
  const std::filesystem::path path =
      dir_ / CertStore::record_filename(kPaper);
  test::write_file(path, seal("PPMCERT", 1, json));

  search_metrics().reset();
  clear_sd_coefficient_cache();
  const std::shared_ptr<CertStore> saved = default_cert_store();
  set_default_cert_store(store);
  const std::vector<gf::Element> tuple =
      sd_coefficients(kPaper.n, kPaper.r, kPaper.m, kPaper.s, kPaper.w);
  set_default_cert_store(saved);
  clear_sd_coefficient_cache();
  EXPECT_EQ(search_metrics().cert_load_failures.value(), 1u);
  EXPECT_EQ(search_metrics().cert_quarantined.value(), 1u);
  EXPECT_EQ(search_metrics().cert_stores.value(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));

  Certificate out;
  CertifyOptions require;
  require.exact_class_limit = 0;
  require.stratified_classes = 0;
  require.plan_budget = 0;
  std::string why;
  EXPECT_EQ(store->load(kPaper, require, &out, &why),
            CertStore::LoadResult::kLoaded)
      << why;
  EXPECT_EQ(out.tuple, tuple);
}

TEST_F(CertStoreTest, BlockedQuarantineRemovesTheRecordUncounted) {
  // A rejected certificate whose quarantine rename fails must not stay in
  // place (every later load would re-run the full certification) and must
  // not be counted as quarantined: it is removed — fail closed.
  CertStore store(dir_);
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  ASSERT_TRUE(store.put(res.cert));
  const std::filesystem::path path =
      dir_ / CertStore::record_filename(kPaper);
  std::string bytes = test::read_file(path);
  bytes.back() ^= 0x01;
  test::write_file(path, bytes);
  std::filesystem::create_directories(path.string() + ".quarantined");

  search_metrics().reset();
  Certificate out;
  EXPECT_EQ(store.load(kPaper, CertifyOptions{}, &out),
            CertStore::LoadResult::kRejected);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(search_metrics().cert_quarantined.value(), 0u);
  EXPECT_EQ(search_metrics().cert_load_failures.value(), 1u);
}

TEST_F(CertStoreTest, PutFailureLeavesNoTmpBehind) {
  // A directory planted at the record path blocks the atomic rename:
  // put() must report false and must not leak the staged .tmp file.
  CertStore store(dir_);
  const CertifyResult res = certify_tuple(kPaper, kPaperTuple);
  ASSERT_TRUE(res.certified);
  const std::filesystem::path record =
      dir_ / CertStore::record_filename(kPaper);
  std::filesystem::create_directories(record);

  EXPECT_FALSE(store.put(res.cert));
  EXPECT_TRUE(std::filesystem::is_directory(record));  // untouched
  EXPECT_FALSE(std::filesystem::exists(record.string() + ".tmp"));
}

}  // namespace
}  // namespace ppm::coeffsearch
