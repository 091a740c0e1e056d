#include "plan_store/plan_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "analyze_hazard/hazard.h"
#include "verify_plan/plan_verify.h"

namespace ppm::planstore {

namespace {

constexpr std::string_view kMagic = "PPMPLAN";

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

void put_index_vec(std::vector<std::uint8_t>& out,
                   std::span<const std::size_t> v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const std::size_t x : v) put_u64(out, x);
}

void put_matrix(std::vector<std::uint8_t>& out, const Matrix& m) {
  put_u32(out, static_cast<std::uint32_t>(m.rows()));
  put_u32(out, static_cast<std::uint32_t>(m.cols()));
  for (const gf::Element e : m.data()) put_u32(out, e);
}

void put_subplan(std::vector<std::uint8_t>& out, const SubPlan& sub) {
  put_u8(out, sub.sequence() == Sequence::kMatrixFirst ? 1 : 0);
  put_index_vec(out, sub.unknowns());
  put_index_vec(out, sub.survivors());
  put_index_vec(out, sub.check_rows());
  put_matrix(out, sub.finv());
  put_matrix(out, sub.s());
  put_u64(out, sub.cost());
  put_u64(out, sub.source_blocks());
}

// Bounds-checked little-endian reader over an untrusted byte span. Every
// accessor fails closed: once `ok` drops, all further reads return zero
// values and the parse is abandoned.
struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;
  bool ok = true;

  std::size_t remaining() const { return ok ? in.size() - pos : 0; }

  template <typename T>
  T le() {
    if (remaining() < sizeof(T)) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= std::uint64_t{in[pos++]} << (8 * i);
    }
    return static_cast<T>(v);
  }
  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }

  std::vector<std::size_t> index_vec() {
    const std::uint32_t count = u32();
    // A corrupt length field must not drive allocation: the elements have
    // to fit in the remaining bytes.
    if (!ok || count > remaining() / 8) {
      ok = false;
      return {};
    }
    std::vector<std::size_t> v(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      v[i] = static_cast<std::size_t>(u64());
    }
    return v;
  }

  std::optional<Matrix> matrix(const gf::Field& f) {
    const std::uint32_t rows = u32();
    const std::uint32_t cols = u32();
    if (!ok || (rows != 0 && cols > remaining() / 4 / rows)) {
      ok = false;
      return std::nullopt;
    }
    Matrix m(f, rows, cols);
    const gf::Element max = f.max_element();
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        const gf::Element e = u32();
        if (e > max) {  // out-of-field coefficient: table lookups would UB
          ok = false;
          return std::nullopt;
        }
        m(r, c) = e;
      }
    }
    if (!ok) return std::nullopt;
    return m;
  }
};

std::optional<SubPlan> read_subplan(Reader& r, const gf::Field& f) {
  const std::uint8_t seq_raw = r.u8();
  if (!r.ok || seq_raw > 1) return std::nullopt;
  const Sequence seq =
      seq_raw == 1 ? Sequence::kMatrixFirst : Sequence::kNormal;
  std::vector<std::size_t> unknowns = r.index_vec();
  std::vector<std::size_t> survivors = r.index_vec();
  std::vector<std::size_t> check_rows = r.index_vec();
  auto finv = r.matrix(f);
  auto s = r.matrix(f);
  const std::size_t cost = static_cast<std::size_t>(r.u64());
  const std::size_t source_blocks = static_cast<std::size_t>(r.u64());
  if (!r.ok || !finv.has_value() || !s.has_value()) return std::nullopt;
  return SubPlan::from_parts(f, seq, std::move(unknowns), std::move(survivors),
                             std::move(check_rows), std::move(*finv),
                             std::move(*s), cost, source_blocks);
}

// Sets the parse error, if requested, and rejects the record.
std::nullopt_t reject(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return std::nullopt;
}

PlanProfile fresh_profile(const CachedPlan& plan,
                          const hazard::Analysis& analysis) {
  PlanProfile p;
  p.cost = plan.cost();
  p.work = analysis.total_work;
  p.critical_path = analysis.critical_path;
  p.max_width = analysis.max_width;
  p.level_width = analysis.level_width;
  p.hazard_free = analysis.ok();
  return p;
}

std::string_view as_chars(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// "sig<digest hex>": every record name of `code` starts with it.
std::string sig_prefix(const ErasureCode& code) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "sig%016" PRIx64,
                code.code_signature().digest);
  return buf;
}

std::optional<StoredPlan> parse_payload(std::string_view bytes,
                                        const ErasureCode& code,
                                        std::string* error) {
  Reader r{{reinterpret_cast<const std::uint8_t*>(bytes.data()),
            bytes.size()},
           0,
           true};
  const std::uint64_t digest = r.u64();
  const std::uint32_t text_len = r.u32();
  if (!r.ok || text_len > r.remaining()) {
    return reject(error, "truncated signature");
  }
  r.pos += text_len;  // text is informational; the digest is the identity
  const std::uint32_t w = r.u32();
  const CodeSignature sig = code.code_signature();
  if (!r.ok || digest != sig.digest || w != code.field().w()) {
    return reject(error, "stale code signature");
  }

  const std::vector<std::size_t> faulty = r.index_vec();
  if (!r.ok || faulty.empty() ||
      !std::is_sorted(faulty.begin(), faulty.end()) ||
      std::adjacent_find(faulty.begin(), faulty.end()) != faulty.end() ||
      faulty.back() >= code.total_blocks()) {
    return reject(error, "bad faulty set");
  }

  PlanProfile prof;
  prof.cost = static_cast<std::size_t>(r.u64());
  prof.work = static_cast<std::size_t>(r.u64());
  prof.critical_path = static_cast<std::size_t>(r.u64());
  prof.max_width = static_cast<std::size_t>(r.u64());
  prof.hazard_free = r.u8() != 0;
  prof.level_width = r.index_vec();

  const std::uint32_t group_count = r.u32();
  if (!r.ok || group_count > r.remaining()) {
    return reject(error, "bad group count");
  }
  std::vector<SubPlan> groups;
  groups.reserve(group_count);
  for (std::uint32_t i = 0; i < group_count; ++i) {
    auto sub = read_subplan(r, code.field());
    if (!sub.has_value()) return reject(error, "bad group sub-plan");
    groups.push_back(std::move(*sub));
  }
  std::optional<SubPlan> rest;
  const std::uint8_t has_rest = r.u8();
  if (!r.ok || has_rest > 1) return reject(error, "bad rest flag");
  if (has_rest == 1) {
    rest = read_subplan(r, code.field());
    if (!rest.has_value()) return reject(error, "bad rest sub-plan");
  }

  if (!r.ok || r.remaining() != 0) return reject(error, "trailing bytes");

  StoredPlan stored{FailureScenario(faulty),
                    CachedPlan::assemble(std::move(groups), std::move(rest)),
                    std::move(prof)};
  return stored;
}

std::vector<std::uint8_t> plan_payload(const ErasureCode& code,
                                       const FailureScenario& scenario,
                                       const CachedPlan& plan) {
  const CodeSignature sig = code.code_signature();
  std::vector<std::uint8_t> payload;
  payload.reserve(1024);
  put_u64(payload, sig.digest);
  put_u32(payload, static_cast<std::uint32_t>(sig.text.size()));
  payload.insert(payload.end(), sig.text.begin(), sig.text.end());
  put_u32(payload, code.field().w());
  put_index_vec(payload, scenario.faulty());

  const PlanProfile& prof = plan.profile();
  put_u64(payload, prof.cost);
  put_u64(payload, prof.work);
  put_u64(payload, prof.critical_path);
  put_u64(payload, prof.max_width);
  put_u8(payload, prof.hazard_free ? 1 : 0);
  put_index_vec(payload, prof.level_width);

  put_u32(payload, static_cast<std::uint32_t>(plan.groups().size()));
  for (const SubPlan& sub : plan.groups()) put_subplan(payload, sub);
  put_u8(payload, plan.rest().has_value() ? 1 : 0);
  if (plan.rest().has_value()) put_subplan(payload, *plan.rest());

  return payload;
}

}  // namespace

std::vector<std::uint8_t> serialize_plan(const ErasureCode& code,
                                         const FailureScenario& scenario,
                                         const CachedPlan& plan) {
  const std::vector<std::uint8_t> payload = plan_payload(code, scenario, plan);
  const std::string record = seal(kMagic, kFormatVersion, as_chars(payload));
  return {record.begin(), record.end()};
}

std::optional<StoredPlan> deserialize_plan(std::span<const std::uint8_t> bytes,
                                           const ErasureCode& code,
                                           std::string* error) {
  std::string_view payload;
  if (!unseal(as_chars(bytes), kMagic, kFormatVersion, &payload, error)) {
    return std::nullopt;
  }
  return parse_payload(payload, code, error);
}

PlanStore::PlanStore(std::filesystem::path directory)
    : dir_(std::move(directory), std::string(kMagic), kFormatVersion,
           ".plan", [this] { ++renamed_; }) {
  // SealedDir never throws; this store's contract is to throw when the
  // directory cannot be created.
  std::filesystem::create_directories(dir_.directory());
}

std::string PlanStore::record_filename(const ErasureCode& code,
                                       const FailureScenario& scenario) {
  std::string name = sig_prefix(code) + "-f";
  bool first = true;
  for (const std::size_t b : scenario.faulty()) {
    if (!first) name += '_';
    name += std::to_string(b);
    first = false;
  }
  return name + ".plan";
}

bool PlanStore::put(const ErasureCode& code, const FailureScenario& scenario,
                    const CachedPlan& plan) try {
  const std::vector<std::uint8_t> payload =
      plan_payload(code, scenario, plan);
  const std::scoped_lock lock(mutex_);
  return dir_.publish(record_filename(code, scenario), as_chars(payload));
} catch (...) {
  // put() sits on the decode path's write-through; serialization
  // surprises must degrade to "not persisted", never throw into a
  // decode. The caller counts planstore.store_failures.
  return false;
}

SealedDir::Accept PlanStore::reprove(const ErasureCode& code,
                                     const FailureScenario* expected,
                                     std::shared_ptr<const CachedPlan>* out,
                                     FailureScenario* scenario_out) {
  return [&code, expected, out, scenario_out](std::string_view payload,
                                              std::string* why) {
    const auto fail = [why](std::string reason) {
      *why = std::move(reason);
      return false;
    };
    std::string parse_error;
    auto stored = parse_payload(payload, code, &parse_error);
    if (!stored.has_value()) return fail("parse: " + parse_error);
    if (expected != nullptr && !(stored->scenario == *expected)) {
      return fail("record key does not match its contents");
    }

    // Zero trust: re-prove the plan exactly as if it had just been built.
    const auto verdict =
        planverify::verify_plan(code, stored->scenario, stored->plan);
    if (!verdict.ok()) {
      return fail("planverify: " + planverify::to_json(verdict.violations));
    }
    const auto analysis = hazard::analyze_plan(stored->plan);
    if (!analysis.ok()) {
      return fail("hazard: " + planverify::to_json(analysis.violations));
    }
    const PlanProfile fresh = fresh_profile(stored->plan, analysis);
    if (!(fresh == stored->stored_profile)) {
      return fail("stored profile disagrees with re-analysis");
    }
    if (out == nullptr) return true;
    stored->plan.profile_ = fresh;  // install the RECOMPUTED profile
    if (scenario_out != nullptr) *scenario_out = stored->scenario;
    *out = std::make_shared<const CachedPlan>(std::move(stored->plan));
    return true;
  };
}

PlanStore::LoadResult PlanStore::load(const ErasureCode& code,
                                      const FailureScenario& scenario,
                                      std::shared_ptr<const CachedPlan>* out,
                                      std::string* why, bool* renamed) {
  const std::scoped_lock lock(mutex_);
  const std::size_t before = renamed_;
  const LoadResult result =
      dir_.load(dir_.directory() / record_filename(code, scenario),
                reprove(code, &scenario, out, nullptr), why);
  if (renamed != nullptr) *renamed = renamed_ != before;
  return result;
}

PlanStore::BulkLoad PlanStore::load_all(const ErasureCode& code) {
  BulkLoad result;
  const std::scoped_lock lock(mutex_);
  const std::size_t before = renamed_;
  for (const auto& path : dir_.records(sig_prefix(code))) {
    std::shared_ptr<const CachedPlan> plan;
    FailureScenario scenario;
    const LoadResult loaded =
        dir_.load(path, reprove(code, nullptr, &plan, &scenario));
    if (loaded == LoadResult::kLoaded) {
      result.plans.emplace_back(std::move(scenario), std::move(plan));
    }
    if (loaded == LoadResult::kRejected) ++result.rejected;
  }
  result.renamed = renamed_ - before;
  return result;
}

std::vector<PlanStore::Entry> PlanStore::list() const {
  const std::scoped_lock lock(mutex_);
  return dir_.list();
}

PlanStore::CheckReport PlanStore::check(const ErasureCode& code) {
  const std::scoped_lock lock(mutex_);
  return dir_.check(sig_prefix(code),
                    reprove(code, nullptr, nullptr, nullptr));
}

PlanStore::GcReport PlanStore::gc(std::size_t keep_quarantined) {
  const std::scoped_lock lock(mutex_);
  return dir_.gc(keep_quarantined);
}

}  // namespace ppm::planstore
