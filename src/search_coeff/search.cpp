#include "search_coeff/search.h"

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include "codes/sd_code.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace ppm::coeffsearch {
namespace {

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t stream_seed(const Geometry& g, std::uint64_t seed) {
  std::uint64_t h = 0x5eac4c0eff1c1e75ULL;
  h = hash_combine(h, g.n);
  h = hash_combine(h, g.r);
  h = hash_combine(h, g.m);
  h = hash_combine(h, g.s);
  h = hash_combine(h, g.w);
  h = hash_combine(h, seed);
  return h;
}

/// Partial Fisher–Yates draw of `k` distinct values from [0, n) — O(n)
/// setup, O(k) draws, no rejection loop. Result is unsorted.
std::vector<std::size_t> sample_distinct(Rng& rng, std::size_t k,
                                         std::size_t n) {
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.bounded(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

/// Deterministic candidate-tuple stream for one geometry. Candidate 0
/// is the consecutive-powers tuple; later candidates pin a_0 = 1 and
/// draw the remaining exponents from a seeded Rng, biased toward
/// residues coprime with 2^w - 1 (maximal multiplicative order, the
/// same heuristic Plank's published SD tuples follow). Duplicates are
/// skipped; the stream ends after `budget` distinct tuples or when the
/// attempt bound runs dry.
class CandidateStream {
 public:
  CandidateStream(const Geometry& g, const gf::Field& f,
                  std::uint64_t seed, std::uint64_t budget)
      : g_(g),
        f_(&f),
        base_(stream_seed(g, seed)),
        budget_(budget),
        attempts_left_(budget * 8 + 16) {}

  bool next(std::vector<gf::Element>* out) {
    const std::size_t count = g_.m + g_.s;
    const std::uint64_t order = f_->max_element();  // |GF(2^w)*|
    while (emitted_ < budget_ && attempts_left_ > 0) {
      --attempts_left_;
      std::vector<gf::Element> tuple(count);
      if (index_ == 0) {
        for (std::size_t q = 0; q < count; ++q) {
          tuple[q] = f_->exp2(q);
        }
      } else {
        Rng rng(hash_combine(base_, index_));
        tuple[0] = f_->exp2(0);
        bool ok = true;
        for (std::size_t q = 1; q < count && ok; ++q) {
          ok = false;
          for (int tries = 0; tries < 64; ++tries) {
            std::uint64_t e = 1 + rng.bounded(order - 1);
            if (std::gcd(e, order) != 1 && tries < 8) continue;
            const gf::Element a = f_->exp2(e);
            if (std::find(tuple.begin(), tuple.begin() + q, a) !=
                tuple.begin() + q) {
              continue;
            }
            tuple[q] = a;
            ok = true;
            break;
          }
        }
        if (!ok) {
          ++index_;
          continue;
        }
      }
      ++index_;
      if (!seen_.insert(tuple).second) continue;
      ++emitted_;
      *out = std::move(tuple);
      return true;
    }
    return false;
  }

 private:
  Geometry g_;
  const gf::Field* f_;
  std::uint64_t base_;
  std::uint64_t budget_;
  std::uint64_t attempts_left_;
  std::uint64_t index_ = 0;
  std::uint64_t emitted_ = 0;
  std::set<std::vector<gf::Element>> seen_;
};

/// Early-exit rank prescreen: the encoding scenario plus
/// `scenario_count` Fisher–Yates-sampled maximal failure scenarios,
/// all through one incremental RankOracle. Cheap enough to run on
/// every candidate; no plan is built here.
bool prescreen_tuple(const Geometry& g, const gf::Field& f,
                     std::span<const gf::Element> tuple,
                     std::uint64_t scenario_count,
                     std::uint64_t scenario_seed) {
  const Matrix h =
      SDCode::build_parity_check(f, g.n, g.r, g.m, g.s, tuple);
  RankOracle oracle(h);
  for (const std::size_t col :
       SDCode::parity_block_ids(g.n, g.r, g.m, g.s)) {
    if (!oracle.add_column(col)) return false;  // encoding rank deficient
  }
  const std::size_t survivors_n = g.n - g.m;
  for (std::uint64_t k = 0; k < scenario_count; ++k) {
    Rng rng(hash_combine(scenario_seed, k));
    std::vector<std::size_t> disks = sample_distinct(rng, g.m, g.n);
    std::sort(disks.begin(), disks.end());
    // Flat bitmap membership instead of per-draw linear scans.
    std::vector<char> failed(g.n, 0);
    for (const std::size_t d : disks) failed[d] = 1;
    std::vector<std::size_t> survivors;
    survivors.reserve(survivors_n);
    for (std::size_t c = 0; c < g.n; ++c) {
      if (!failed[c]) survivors.push_back(c);
    }
    const std::vector<std::size_t> cells =
        sample_distinct(rng, g.s, survivors_n * g.r);
    oracle.truncate(0);
    bool ok = true;
    for (const std::size_t d : disks) {
      for (std::size_t row = 0; row < g.r && ok; ++row) {
        ok = oracle.add_column(row * g.n + d);
      }
      if (!ok) break;
    }
    for (std::size_t i = 0; i < cells.size() && ok; ++i) {
      const std::size_t row = cells[i] / survivors_n;
      const std::size_t col = survivors[cells[i] % survivors_n];
      ok = oracle.add_column(row * g.n + col);
    }
    if (!ok) return false;
  }
  return true;
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(8u, hw == 0 ? 1u : hw);
}

/// Deterministic tie-break order: worst critical path, then worst
/// work, then the tuple itself.
bool candidate_less(const CertifiedCandidate& a,
                    const CertifiedCandidate& b) {
  return std::tie(a.cert.worst_case.critical_path, a.cert.worst_case.work,
                  a.tuple) <
         std::tie(b.cert.worst_case.critical_path, b.cert.worst_case.work,
                  b.tuple);
}

bool dominates(const CertifiedCandidate& a, const CertifiedCandidate& b) {
  const ClassProfile& x = a.cert.worst_case;
  const ClassProfile& y = b.cert.worst_case;
  return x.critical_path <= y.critical_path && x.work <= y.work &&
         (x.critical_path < y.critical_path || x.work < y.work);
}

}  // namespace

SearchResult search_best(const Geometry& g, const SearchOptions& opts) {
  validate_geometry(g);
  SearchResult result;
  SearchMetrics& metrics = search_metrics();
  const gf::Field& f = gf::field(g.w);
  const std::uint64_t seed_base = stream_seed(g, opts.seed);

  // 1. Draw the deterministic candidate stream.
  std::vector<std::vector<gf::Element>> candidates;
  {
    CandidateStream stream(g, f, opts.seed, opts.candidate_budget);
    std::vector<gf::Element> tuple;
    while (stream.next(&tuple)) candidates.push_back(std::move(tuple));
  }
  result.candidates_considered = candidates.size();
  metrics.tuples_considered.add(candidates.size());

  // 2. Rank prescreen, fanned out across a pool. Each slot is written
  //    by exactly one task; the countdown latch publishes them all.
  std::vector<char> pass(candidates.size(), 0);
  const unsigned threads = resolve_threads(opts.threads);
  const auto screen = [&](std::size_t i) {
    bool ok = false;
    try {
      ok = prescreen_tuple(g, f, candidates[i], opts.prescreen_scenarios,
                           hash_combine(seed_base, 0x70726573ULL + i));
    } catch (...) {
      ok = false;
    }
    pass[i] = ok ? 1 : 0;
  };
  if (threads > 1 && candidates.size() > 1) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      pool.submit([&, i] {
        screen(i);
        std::scoped_lock lock(mu);
        if (--pending == 0) cv.notify_one();
      });
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) screen(i);
  }

  // 3. Certify survivors in stream order until the budget is spent.
  std::vector<CertifiedCandidate> certified;
  CertifyOptions certify = opts.certify;
  certify.threads = opts.threads;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!pass[i]) {
      ++result.rank_pruned;
      continue;
    }
    if (certified.size() >= opts.certify_budget) break;
    CertifyResult proof = certify_tuple(g, candidates[i], certify);
    if (proof.certified) {
      ++result.certified;
      certified.push_back({std::move(candidates[i]), std::move(proof.cert)});
    } else {
      ++result.refuted;
    }
  }
  metrics.tuples_prescreened.add(result.rank_pruned);

  if (certified.empty()) {
    result.reason = "no candidate certified within budget (" +
                    std::to_string(result.rank_pruned) +
                    " prescreen-pruned, " +
                    std::to_string(result.refuted) + " refuted)";
    return result;
  }

  // 4. Pareto frontier under (worst critical path, worst work).
  std::sort(certified.begin(), certified.end(), candidate_less);
  for (const CertifiedCandidate& c : certified) {
    const bool dominated =
        std::any_of(result.pareto.begin(), result.pareto.end(),
                    [&](const CertifiedCandidate& p) {
                      return dominates(p, c);
                    });
    if (!dominated) result.pareto.push_back(c);
  }
  result.found = true;
  result.best = result.pareto.front();
  return result;
}

CertifyResult certify_first(const Geometry& g, const SearchOptions& opts) {
  validate_geometry(g);
  SearchMetrics& metrics = search_metrics();
  const gf::Field& f = gf::field(g.w);
  const std::uint64_t seed_base = stream_seed(g, opts.seed);
  CertifyOptions certify = opts.certify;
  certify.threads = opts.threads;

  CandidateStream stream(g, f, opts.seed, opts.candidate_budget);
  std::vector<gf::Element> tuple;
  std::uint64_t index = 0;
  std::uint64_t pruned = 0;
  std::uint64_t refuted = 0;
  CertifyResult last;
  while (stream.next(&tuple)) {
    metrics.tuples_considered.add();
    const std::uint64_t i = index++;
    if (!prescreen_tuple(g, f, tuple, opts.prescreen_scenarios,
                         hash_combine(seed_base, 0x70726573ULL + i))) {
      ++pruned;
      metrics.tuples_prescreened.add();
      continue;
    }
    last = certify_tuple(g, tuple, certify);
    if (last.certified) return last;
    ++refuted;
  }
  CertifyResult out;
  out.certified = false;
  out.reason = "candidate budget exhausted without a certified tuple (" +
               std::to_string(pruned) + " prescreen-pruned, " +
               std::to_string(refuted) + " refuted" +
               (last.reason.empty() ? std::string()
                                    : "; last: " + last.reason) +
               ")";
  return out;
}

}  // namespace ppm::coeffsearch
