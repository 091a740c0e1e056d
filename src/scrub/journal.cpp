#include "scrub/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/metrics.h"

namespace ppm::scrub {
namespace {

constexpr std::uint64_t kFormatVersion = 1;
// Parse cap on list lengths: no stripe has this many blocks; a record
// claiming more is hostile or rotten, not big.
constexpr std::size_t kMaxBlocks = 1u << 20;

std::string serialize(const JournalRecord& record) {
  std::string out;
  out += "seq ";
  out += std::to_string(record.seq);
  out += "\nstripe ";
  out += RepairJournal::sanitize(record.stripe_id);
  out += "\nstate ";
  out += record.committed ? "committed" : "intent";
  out += "\nblocks";
  for (const std::size_t b : record.blocks) {
    out += " ";
    out += std::to_string(b);
  }
  out += "\ncrc";
  for (const std::uint32_t c : record.crc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, " %08x", c);
    out += buf;
  }
  out += "\n";
  return out;
}

// Bounds-checked parse of an unsealed payload. The seal already proved
// integrity; this proves *shape* — nothing read here is trusted to be
// well-formed.
bool parse(std::string_view payload, JournalRecord* out) {
  std::istringstream in{std::string(payload)};
  std::string line;
  bool have_seq = false;
  bool have_state = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "seq") {
      if (!(ls >> out->seq)) return false;
      have_seq = true;
    } else if (key == "stripe") {
      if (!(ls >> out->stripe_id)) return false;
    } else if (key == "state") {
      std::string state;
      if (!(ls >> state)) return false;
      if (state == "committed") {
        out->committed = true;
      } else if (state == "intent") {
        out->committed = false;
      } else {
        return false;
      }
      have_state = true;
    } else if (key == "blocks") {
      std::size_t b = 0;
      while (ls >> b) {
        if (out->blocks.size() >= kMaxBlocks) return false;
        out->blocks.push_back(b);
      }
      if (!ls.eof()) return false;
    } else if (key == "crc") {
      std::string tok;
      while (ls >> tok) {
        if (out->crc.size() >= kMaxBlocks) return false;
        char* end = nullptr;
        const unsigned long v = std::strtoul(tok.c_str(), &end, 16);
        if (end == tok.c_str() || *end != '\0') return false;
        out->crc.push_back(static_cast<std::uint32_t>(v));
      }
      if (!ls.eof()) return false;
    } else {
      return false;  // unknown key: not a record this version wrote
    }
  }
  return have_seq && have_state && out->blocks.size() == out->crc.size();
}

}  // namespace

RepairJournal::RepairJournal(std::filesystem::path directory)
    : dir_(std::move(directory), "PPMSCRUBJ", kFormatVersion, ".scrubj",
           [] { scrub_metrics().journal_quarantined.add(); }) {
  // Resume the sequence past everything on disk — including quarantined
  // files, so a rebuilt record can never collide with crash evidence.
  for (const Entry& entry : dir_.list()) {
    std::uint64_t seq = 0;
    if (std::sscanf(entry.filename.c_str(), "rep-%016" SCNx64, &seq) == 1 &&
        seq >= next_seq_) {
      next_seq_ = seq + 1;
    }
  }
}

// Journal identifiers travel inside the sealed payload as one
// whitespace-free token.
std::string RepairJournal::sanitize(const std::string& stripe_id) {
  std::string out = stripe_id.empty() ? std::string{"stripe"} : stripe_id;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string RepairJournal::record_filename(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "rep-%016" PRIx64 ".scrubj", seq);
  return buf;
}

std::optional<std::uint64_t> RepairJournal::begin(
    const std::string& stripe_id, const std::vector<std::size_t>& blocks,
    const std::vector<std::uint32_t>& crc) {
  if (blocks.size() != crc.size()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(mutex_);
  JournalRecord record{next_seq_, sanitize(stripe_id), false, blocks, crc};
  if (!dir_.publish(record_filename(record.seq), serialize(record))) {
    scrub_metrics().journal_store_failures.add();
    return std::nullopt;
  }
  ++next_seq_;
  const std::uint64_t seq = record.seq;
  pending_.emplace(seq, std::move(record));
  scrub_metrics().journal_intents.add();
  return seq;
}

bool RepairJournal::commit(std::uint64_t seq,
                           const std::vector<std::size_t>& repaired,
                           const std::vector<std::uint32_t>& crc) {
  if (repaired.size() != crc.size()) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return false;
  JournalRecord record = it->second;
  record.committed = true;
  record.blocks = repaired;
  record.crc = crc;
  if (!dir_.publish(record_filename(record.seq), serialize(record))) {
    scrub_metrics().journal_store_failures.add();
    return false;
  }
  pending_.erase(it);
  scrub_metrics().journal_commits.add();
  return true;
}

std::vector<JournalRecord> RepairJournal::load_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalRecord> records;
  for (const auto& path : dir_.records()) {
    dir_.load(path, [&records](std::string_view payload, std::string* why) {
      JournalRecord record;
      if (!parse(payload, &record)) {
        *why = "malformed journal record";
        return false;
      }
      records.push_back(std::move(record));
      return true;
    });
  }
  std::sort(records.begin(), records.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

bool RepairJournal::quarantine(std::uint64_t seq) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.erase(seq);
  return dir_.quarantine(dir_.directory() / record_filename(seq));
}

std::vector<RepairJournal::Entry> RepairJournal::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dir_.list();
}

RepairJournal::GcReport RepairJournal::gc(std::size_t keep_quarantined) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Only verified committed records are collectable; intents (and
  // anything unreadable) stay for replay to deal with.
  const SealedDir::GcReport swept =
      dir_.gc(keep_quarantined, [](std::string_view payload) {
        JournalRecord record;
        return parse(payload, &record) && record.committed;
      });
  return GcReport{swept.removed_records, swept.removed_quarantined,
                  swept.removed_tmp};
}

}  // namespace ppm::scrub
