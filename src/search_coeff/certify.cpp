#include "search_coeff/certify.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analyze_hazard/hazard.h"
#include "codec/codec.h"
#include "codes/sd_code.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "decode/scenario.h"
#include "parallel/thread_pool.h"
#include "verify_plan/plan_verify.h"

namespace ppm::coeffsearch {
namespace {

constexpr std::size_t kChunkClasses = 1024;
constexpr std::size_t kSerialSweepLimit = 4096;

using StratumKey = std::pair<std::size_t, std::vector<std::size_t>>;

struct StratumAgg {
  std::uint64_t classes = 0;
  std::uint64_t members = 0;
  std::uint64_t deficient_classes = 0;
  std::uint64_t deficient_members = 0;
};

struct IndexedClass {
  std::uint64_t index = 0;
  ScenarioClass cls;
};

// Shared state of one rank sweep. Aggregation is order-independent
// (sums and an index-minimum), so the result is deterministic for any
// thread count.
struct SweepState {
  bool allow_deficient = false;  // set before the sweep, read-only after
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  std::atomic<std::uint64_t> min_fail{UINT64_MAX};
  ScenarioClass fail_class;  // class at min_fail; guarded by mu
  std::map<StratumKey, StratumAgg> strata;  // guarded by mu

  bool failed() const {
    return !allow_deficient &&
           min_fail.load(std::memory_order_relaxed) != UINT64_MAX;
  }
};

// Rank-checks one chunk of classes against H. Reuses the disk-set
// basis across consecutive classes (the enumerator emits classes
// grouped by disk set).
void sweep_chunk(const Geometry& g, const Matrix& h,
                 const std::vector<IndexedClass>& chunk,
                 SweepState& state) {
  RankOracle oracle(h);
  std::vector<std::size_t> current_disks;
  bool disks_ok = false;
  std::size_t disk_mark = 0;
  std::map<StratumKey, StratumAgg> local;
  std::uint64_t local_fail = UINT64_MAX;
  const ScenarioClass* local_fail_class = nullptr;
  for (const IndexedClass& entry : chunk) {
    if (!state.allow_deficient &&
        entry.index > state.min_fail.load(std::memory_order_relaxed)) {
      continue;  // a strictly earlier failure is already recorded
    }
    const ScenarioClass& cls = entry.cls;
    if (cls.disks != current_disks) {
      current_disks = cls.disks;
      oracle.truncate(0);
      disks_ok = true;
      for (const std::size_t d : cls.disks) {
        for (std::size_t row = 0; row < g.r && disks_ok; ++row) {
          disks_ok = oracle.add_column(row * g.n + d);
        }
      }
      disk_mark = oracle.basis_size();
    }
    bool ok = disks_ok;
    if (ok) {
      for (const std::size_t b : cls.sectors) {
        if (!oracle.add_column(b)) {
          ok = false;
          break;
        }
      }
      oracle.truncate(disk_mark);
    }
    StratumAgg& agg = local[{cls.z, cls.row_loads}];
    if (!ok) {
      if (entry.index < local_fail) {
        local_fail = entry.index;
        local_fail_class = &entry.cls;
      }
      // In characterization mode the class still counts toward the
      // stratum census — its deficiency is tallied, not hidden.
      if (state.allow_deficient) {
        ++agg.classes;
        agg.members += cls.members;
        ++agg.deficient_classes;
        agg.deficient_members += cls.members;
      }
      continue;
    }
    ++agg.classes;
    agg.members += cls.members;
  }
  std::scoped_lock lock(state.mu);
  for (auto& [key, agg] : local) {
    StratumAgg& into = state.strata[key];
    into.classes += agg.classes;
    into.members += agg.members;
    into.deficient_classes += agg.deficient_classes;
    into.deficient_members += agg.deficient_members;
  }
  if (local_fail != UINT64_MAX &&
      local_fail < state.min_fail.load(std::memory_order_relaxed)) {
    state.min_fail.store(local_fail, std::memory_order_relaxed);
    state.fail_class = *local_fail_class;
  }
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(8u, std::max(1u, hw));
}

void profile_max(ClassProfile& into, const ClassProfile& p) {
  into.cost = std::max(into.cost, p.cost);
  into.work = std::max(into.work, p.work);
  into.critical_path = std::max(into.critical_path, p.critical_path);
  into.max_width = std::max(into.max_width, p.max_width);
}

// ---------------------------------------------------------------------------
// JSON emission. Integers, booleans, one string field and fixed nesting
// only — mirrors the append_kv style of common/metrics.cpp.

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  if (comma) out += ',';
}

void append_bool(std::string& out, const char* key, bool v,
                 bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += v ? "true" : "false";
  if (comma) out += ',';
}

void append_profile(std::string& out, const char* key,
                    const ClassProfile& p, bool comma = true) {
  out += '"';
  out += key;
  out += "\":{";
  append_u64(out, "cost", p.cost);
  append_u64(out, "work", p.work);
  append_u64(out, "critical_path", p.critical_path);
  append_u64(out, "max_width", p.max_width, false);
  out += '}';
  if (comma) out += ',';
}

// ---------------------------------------------------------------------------
// Minimal JSON parser for the certificate format: objects, arrays,
// unsigned integers, true/false and plain (escape-free) strings.

struct JsonValue {
  enum class Kind { kNumber, kBool, kString, kArray, kObject };
  Kind kind = Kind::kNumber;
  std::uint64_t number = 0;
  bool boolean = false;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* why) {
    if (!value(out)) {
      if (why) *why = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (why) *why = "trailing bytes after JSON value";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool fail(const char* what) {
    error_ = std::string(what) + " at byte " + std::to_string(pos_);
    return false;
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') return string_value(out);
    if (c == 't' || c == 'f') return boolean(out);
    if (std::isdigit(static_cast<unsigned char>(c))) return number(out);
    return fail("unexpected character");
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue key;
      if (pos_ >= text_.size() || text_[pos_] != '"' ||
          !string_value(&key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue val;
      if (!value(&val)) return false;
      out->fields.emplace_back(std::move(key.text), std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!value(&item)) return false;
      out->items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string_value(JsonValue* out) {
    out->kind = JsonValue::Kind::kString;
    ++pos_;  // '"'
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return fail("escape sequences unsupported");
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    out->text = std::string(text_.substr(start, pos_ - start));
    ++pos_;  // closing '"'
    return true;
  }

  bool boolean(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected true/false");
  }

  bool number(JsonValue* out) {
    out->kind = JsonValue::Kind::kNumber;
    std::uint64_t v = 0;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > (UINT64_MAX - digit) / 10) return fail("number overflow");
      v = v * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) return fail("expected digits");
    out->number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool read_u64(const JsonValue& obj, std::string_view key,
              std::uint64_t* out, std::string* why) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    if (why) *why = "missing integer field '" + std::string(key) + "'";
    return false;
  }
  *out = v->number;
  return true;
}

bool read_bool(const JsonValue& obj, std::string_view key, bool* out,
               std::string* why) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) {
    if (why) *why = "missing boolean field '" + std::string(key) + "'";
    return false;
  }
  *out = v->boolean;
  return true;
}

bool read_profile(const JsonValue& obj, std::string_view key,
                  ClassProfile* out, std::string* why) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    if (why) *why = "missing profile object '" + std::string(key) + "'";
    return false;
  }
  return read_u64(*v, "cost", &out->cost, why) &&
         read_u64(*v, "work", &out->work, why) &&
         read_u64(*v, "critical_path", &out->critical_path, why) &&
         read_u64(*v, "max_width", &out->max_width, why);
}

}  // namespace

std::string Certificate::to_json() const {
  std::string out;
  out.reserve(512 + strata.size() * 160);
  out += '{';
  append_u64(out, "format", kCertFormatVersion);
  append_u64(out, "enumerator_version", kEnumeratorVersion);
  append_u64(out, "certifier_version", kCertifierVersion);
  out += "\"family\":\"" + family + "\",";
  append_u64(out, "n", geometry.n);
  append_u64(out, "r", geometry.r);
  append_u64(out, "m", geometry.m);
  append_u64(out, "s", geometry.s);
  append_u64(out, "w", geometry.w);
  out += "\"tuple\":[";
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(tuple[i]);
  }
  out += "],";
  append_u64(out, "exact_class_limit", exact_class_limit);
  append_u64(out, "stratified_classes", stratified_classes);
  append_u64(out, "plan_budget", plan_budget);
  append_bool(out, "exact", exact);
  out += "\"universe\":{";
  append_u64(out, "maximal", maximal);
  append_u64(out, "canonical", canonical);
  append_u64(out, "enumerated", enumerated);
  append_u64(out, "rank_checked", rank_checked);
  append_u64(out, "plans_proven", plans_proven);
  append_u64(out, "deficient_classes", deficient_classes);
  append_u64(out, "deficient_members", deficient_members, false);
  out += "},";
  append_profile(out, "encoding", encoding);
  append_profile(out, "worst_case", worst_case);
  out += "\"strata\":[";
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const StratumReport& st = strata[i];
    if (i != 0) out += ',';
    out += '{';
    append_u64(out, "z", st.z);
    out += "\"loads\":[";
    for (std::size_t j = 0; j < st.loads.size(); ++j) {
      if (j != 0) out += ',';
      out += std::to_string(st.loads[j]);
    }
    out += "],";
    append_u64(out, "classes", st.classes);
    append_u64(out, "members", st.members);
    append_u64(out, "plans_proven", st.plans_proven);
    append_u64(out, "deficient_classes", st.deficient_classes);
    append_u64(out, "deficient_members", st.deficient_members);
    append_profile(out, "worst", st.worst, false);
    out += '}';
  }
  out += "]}";
  return out;
}

bool parse_certificate(std::string_view json, Certificate* out,
                       std::string* why) {
  JsonValue root;
  JsonParser parser(json);
  if (!parser.parse(&root, why)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (why) *why = "certificate is not a JSON object";
    return false;
  }
  std::uint64_t format = 0;
  std::uint64_t enumerator = 0;
  std::uint64_t certifier = 0;
  if (!read_u64(root, "format", &format, why) ||
      !read_u64(root, "enumerator_version", &enumerator, why) ||
      !read_u64(root, "certifier_version", &certifier, why)) {
    return false;
  }
  if (format != kCertFormatVersion || enumerator != kEnumeratorVersion ||
      certifier != kCertifierVersion) {
    if (why) *why = "oracle version mismatch";
    return false;
  }
  Certificate cert;
  const JsonValue* family = root.find("family");
  if (family == nullptr || family->kind != JsonValue::Kind::kString) {
    if (why) *why = "missing family";
    return false;
  }
  cert.family = family->text;
  std::uint64_t n = 0;
  std::uint64_t r = 0;
  std::uint64_t m = 0;
  std::uint64_t s = 0;
  std::uint64_t w = 0;
  if (!read_u64(root, "n", &n, why) || !read_u64(root, "r", &r, why) ||
      !read_u64(root, "m", &m, why) || !read_u64(root, "s", &s, why) ||
      !read_u64(root, "w", &w, why)) {
    return false;
  }
  cert.geometry = Geometry{static_cast<std::size_t>(n),
                           static_cast<std::size_t>(r),
                           static_cast<std::size_t>(m),
                           static_cast<std::size_t>(s),
                           static_cast<unsigned>(w)};
  const JsonValue* tuple = root.find("tuple");
  if (tuple == nullptr || tuple->kind != JsonValue::Kind::kArray) {
    if (why) *why = "missing tuple";
    return false;
  }
  for (const JsonValue& e : tuple->items) {
    if (e.kind != JsonValue::Kind::kNumber ||
        e.number > UINT32_MAX) {
      if (why) *why = "malformed tuple element";
      return false;
    }
    cert.tuple.push_back(static_cast<gf::Element>(e.number));
  }
  if (!read_u64(root, "exact_class_limit", &cert.exact_class_limit, why) ||
      !read_u64(root, "stratified_classes", &cert.stratified_classes,
                why) ||
      !read_u64(root, "plan_budget", &cert.plan_budget, why) ||
      !read_bool(root, "exact", &cert.exact, why)) {
    return false;
  }
  const JsonValue* universe = root.find("universe");
  if (universe == nullptr ||
      universe->kind != JsonValue::Kind::kObject) {
    if (why) *why = "missing universe";
    return false;
  }
  if (!read_u64(*universe, "maximal", &cert.maximal, why) ||
      !read_u64(*universe, "canonical", &cert.canonical, why) ||
      !read_u64(*universe, "enumerated", &cert.enumerated, why) ||
      !read_u64(*universe, "rank_checked", &cert.rank_checked, why) ||
      !read_u64(*universe, "plans_proven", &cert.plans_proven, why) ||
      !read_u64(*universe, "deficient_classes", &cert.deficient_classes,
                why) ||
      !read_u64(*universe, "deficient_members", &cert.deficient_members,
                why)) {
    return false;
  }
  if (!read_profile(root, "encoding", &cert.encoding, why) ||
      !read_profile(root, "worst_case", &cert.worst_case, why)) {
    return false;
  }
  const JsonValue* strata = root.find("strata");
  if (strata == nullptr || strata->kind != JsonValue::Kind::kArray) {
    if (why) *why = "missing strata";
    return false;
  }
  for (const JsonValue& entry : strata->items) {
    if (entry.kind != JsonValue::Kind::kObject) {
      if (why) *why = "malformed stratum";
      return false;
    }
    StratumReport st;
    std::uint64_t z = 0;
    if (!read_u64(entry, "z", &z, why)) return false;
    st.z = static_cast<std::size_t>(z);
    const JsonValue* loads = entry.find("loads");
    if (loads == nullptr || loads->kind != JsonValue::Kind::kArray) {
      if (why) *why = "malformed stratum loads";
      return false;
    }
    for (const JsonValue& l : loads->items) {
      if (l.kind != JsonValue::Kind::kNumber) {
        if (why) *why = "malformed stratum load";
        return false;
      }
      st.loads.push_back(static_cast<std::size_t>(l.number));
    }
    if (!read_u64(entry, "classes", &st.classes, why) ||
        !read_u64(entry, "members", &st.members, why) ||
        !read_u64(entry, "plans_proven", &st.plans_proven, why) ||
        !read_u64(entry, "deficient_classes", &st.deficient_classes,
                  why) ||
        !read_u64(entry, "deficient_members", &st.deficient_members,
                  why) ||
        !read_profile(entry, "worst", &st.worst, why)) {
      return false;
    }
    cert.strata.push_back(std::move(st));
  }
  *out = std::move(cert);
  return true;
}

CertifyResult certify_tuple(const Geometry& g,
                            std::span<const gf::Element> tuple,
                            const CertifyOptions& opts) {
  validate_geometry(g);
  Timer clock;
  SearchMetrics& metrics = search_metrics();
  CertifyResult out;
  const auto reject = [&](std::string reason,
                          std::vector<std::size_t> blocks = {}) {
    out.certified = false;
    out.reason = std::move(reason);
    out.first_failure = std::move(blocks);
    metrics.tuples_rejected.add();
    metrics.certify_seconds.record_seconds(clock.seconds());
    return out;
  };

  const gf::Field& f = gf::field(g.w);
  if (tuple.size() != g.m + g.s) {
    return reject("tuple arity != m+s");
  }
  for (const gf::Element e : tuple) {
    if (e == 0 || e > f.max_element()) {
      return reject("tuple element outside GF(2^w) \\ {0}");
    }
  }

  const Matrix h =
      SDCode::build_parity_check(f, g.n, g.r, g.m, g.s, tuple);

  // Encoding system first: parity blocks must be computable at all.
  const std::vector<std::size_t> parity =
      SDCode::parity_block_ids(g.n, g.r, g.m, g.s);
  {
    RankOracle enc(h);
    for (const std::size_t b : parity) {
      if (!enc.add_column(b)) {
        return reject("encoding system rank deficient", parity);
      }
    }
  }

  const EnumerateOptions eopts{opts.exact_class_limit,
                               opts.stratified_classes};
  const EnumerationPlan eplan = plan_enumeration(g, eopts);
  const std::uint64_t plan_stride =
      opts.plan_budget == 0
          ? 0
          : std::max<std::uint64_t>(
                1, (std::max<std::uint64_t>(eplan.classes, 1) +
                    opts.plan_budget - 1) /
                       opts.plan_budget);

  // --- Rank sweep: every enumerated class must keep H full column
  // rank on its faulty blocks. Chunked fan-out over a local pool.
  SweepState state;
  state.allow_deficient = opts.allow_deficient;
  std::vector<ScenarioClass> plan_set;
  const unsigned threads = resolve_threads(opts.threads);
  const bool pooled =
      threads > 1 && eplan.classes > kSerialSweepLimit;
  std::unique_ptr<ThreadPool> pool;
  if (pooled) pool = std::make_unique<ThreadPool>(threads);
  const std::size_t max_inflight = static_cast<std::size_t>(threads) * 3;

  std::vector<IndexedClass> pending;
  pending.reserve(kChunkClasses);
  std::uint64_t index = 0;
  const auto flush = [&] {
    if (pending.empty()) return;
    auto chunk = std::make_shared<std::vector<IndexedClass>>(
        std::move(pending));
    pending.clear();
    pending.reserve(kChunkClasses);
    if (!pooled) {
      sweep_chunk(g, h, *chunk, state);
      return;
    }
    {
      std::unique_lock lock(state.mu);
      state.cv.wait(lock,
                    [&] { return state.inflight < max_inflight; });
      ++state.inflight;
    }
    pool->submit([&, chunk] {
      sweep_chunk(g, h, *chunk, state);
      {
        std::scoped_lock lock(state.mu);
        --state.inflight;
      }
      state.cv.notify_all();
    });
  };

  enumerate_classes(g, eopts, [&](const ScenarioClass& cls) {
    if (plan_stride != 0 && index % plan_stride == 0 &&
        plan_set.size() < opts.plan_budget) {
      plan_set.push_back(cls);
    }
    pending.push_back({index, cls});
    ++index;
    if (pending.size() >= kChunkClasses) flush();
    return !state.failed();
  });
  flush();
  if (pooled) {
    std::unique_lock lock(state.mu);
    state.cv.wait(lock, [&] { return state.inflight == 0; });
  }
  metrics.classes_rank_checked.add(index);

  if (state.failed()) {
    ScenarioClass fail;
    {
      std::scoped_lock lock(state.mu);
      fail = state.fail_class;
    }
    return reject("scenario rank deficient (class " +
                      std::to_string(state.min_fail.load()) + ")",
                  fail.blocks(g));
  }

  std::uint64_t deficient_classes = 0;
  std::uint64_t deficient_members = 0;
  for (const auto& [key, agg] : state.strata) {
    deficient_classes += agg.deficient_classes;
    deficient_members += agg.deficient_members;
  }

  // Internal consistency of the symmetry quotient: in exact mode the
  // canonical classes and their orbit sizes must reproduce the
  // closed-form census exactly. A mismatch is an enumerator bug, and
  // no certificate may be issued over it.
  std::uint64_t classes_total = 0;
  std::uint64_t members_total = 0;
  for (const auto& [key, agg] : state.strata) {
    classes_total += agg.classes;
    members_total += agg.members;
  }
  if (classes_total != index) {
    return reject("enumerator stratum accounting mismatch");
  }
  if (eplan.exact && (index != eplan.census.canonical ||
                      members_total != eplan.census.maximal)) {
    return reject("census cross-check failed (symmetry accounting)");
  }

  // --- Plan proofs: drive the selected classes through the full
  // static-analysis stack and accumulate worst-case profiles.
  ClassProfile encoding_profile;
  ClassProfile worst;
  std::map<StratumKey, std::pair<std::uint64_t, ClassProfile>>
      stratum_plans;  // key -> (plans proven, worst profile)
  std::uint64_t plans_proven = 0;
  if (opts.plan_budget > 0) {
    const std::vector<gf::Element> coeffs(tuple.begin(), tuple.end());
    const SDCode code(g.n, g.r, g.m, g.s, g.w, coeffs);
    Codec::Options copts;
    copts.threads = 1;
    copts.cache_capacity = 16;
    Codec codec(code, copts);

    enum class Proof { kProven, kUndecodable, kFailed };
    const auto prove = [&](const std::vector<std::size_t>& blocks,
                           ClassProfile* profile) -> Proof {
      const FailureScenario scenario(blocks);
      std::shared_ptr<const CachedPlan> plan;
      try {
        plan = codec.plan_for(scenario);
      } catch (const std::logic_error&) {
        // PPM_VERIFY_PLANS builds throw on violations.
        return Proof::kFailed;
      }
      if (plan == nullptr) return Proof::kUndecodable;
      const planverify::VerifyResult vr =
          planverify::verify_plan(code, scenario, *plan);
      if (!vr.ok()) return Proof::kFailed;
      const hazard::Analysis an = hazard::analyze_plan(*plan);
      if (!an.violations.empty()) return Proof::kFailed;
      const PlanProfile& p = plan->profile();
      if (!p.hazard_free) return Proof::kFailed;
      profile->cost = p.cost;
      profile->work = p.work;
      profile->critical_path = p.critical_path;
      profile->max_width = p.max_width;
      return Proof::kProven;
    };

    if (prove(parity, &encoding_profile) != Proof::kProven) {
      return reject("encoding plan failed static proof", parity);
    }
    profile_max(worst, encoding_profile);

    for (const ScenarioClass& cls : plan_set) {
      ClassProfile profile;
      const Proof proof = prove(cls.blocks(g), &profile);
      if (proof == Proof::kUndecodable && opts.allow_deficient) {
        continue;  // a counted deficiency, not a proof failure
      }
      if (proof != Proof::kProven) {
        return reject("scenario plan failed static proof",
                      cls.blocks(g));
      }
      ++plans_proven;
      profile_max(worst, profile);
      auto& [count, stratum_worst] =
          stratum_plans[{cls.z, cls.row_loads}];
      ++count;
      profile_max(stratum_worst, profile);
    }
    metrics.plans_proven.add(plans_proven + 1);
  }

  // --- Assemble the certificate.
  Certificate cert;
  cert.geometry = g;
  cert.family = "sd";
  cert.tuple.assign(tuple.begin(), tuple.end());
  cert.exact_class_limit = opts.exact_class_limit;
  cert.stratified_classes = opts.stratified_classes;
  cert.plan_budget = opts.plan_budget;
  cert.exact = eplan.exact;
  cert.maximal = eplan.census.maximal;
  cert.canonical = eplan.census.canonical;
  cert.enumerated = index;
  cert.rank_checked = index;
  cert.plans_proven = plans_proven;
  cert.deficient_classes = deficient_classes;
  cert.deficient_members = deficient_members;
  cert.encoding = encoding_profile;
  cert.worst_case = worst;
  for (const auto& [key, agg] : state.strata) {
    StratumReport st;
    st.z = key.first;
    st.loads = key.second;
    st.classes = agg.classes;
    st.members = agg.members;
    st.deficient_classes = agg.deficient_classes;
    st.deficient_members = agg.deficient_members;
    if (const auto it = stratum_plans.find(key);
        it != stratum_plans.end()) {
      st.plans_proven = it->second.first;
      st.worst = it->second.second;
    }
    cert.strata.push_back(std::move(st));
  }

  out.certified = true;
  out.cert = std::move(cert);
  metrics.tuples_certified.add();
  metrics.certify_seconds.record_seconds(clock.seconds());
  return out;
}

}  // namespace ppm::coeffsearch
