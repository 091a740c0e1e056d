#include "common/sealed_dir.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/crc32.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kQuarantineSuffix = ".quarantined";
constexpr std::string_view kTmpSuffix = ".tmp";

enum class ReadResult { kOk, kMissing, kFailed };

// Reads the regular file at `path`; a directory or device is no record.
ReadResult read_file(const fs::path& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    if (fd >= 0) ::close(fd);
    return ReadResult::kMissing;
  }
  out->clear();
  char buf[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR)) {
    if (n > 0) out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return n == 0 ? ReadResult::kOk : ReadResult::kFailed;
}

// Writes `bytes` to `path` and fsyncs it. On failure, a file this call
// created is removed again; anything that blocked the open is left alone.
bool write_synced(const fs::path& path, std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  std::size_t done = 0;
  while (ok && done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;  // a zero-byte write (disk full) must not spin
    if (ok) done += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  std::error_code ec;
  if (!ok) fs::remove(path, ec);
  return ok;
}

// Makes a rename inside `dir` durable.
bool sync_directory(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

bool fail(std::string* why, const char* reason) {
  if (why != nullptr) *why = reason;
  return false;
}

// Regular files directly under `dir`, unsorted.
std::vector<fs::path> regular_files(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::error_code type_ec;
    if (entry.is_regular_file(type_ec)) out.push_back(entry.path());
  }
  return out;
}

}  // namespace

std::string seal(std::string_view magic, std::uint64_t version,
                 std::string_view payload) {
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08" PRIx32,
                crc32(payload.data(), payload.size()));
  std::string out(magic);
  out += ' ' + std::to_string(version) + ' ' + crc + ' ' +
         std::to_string(payload.size()) + '\n';
  return out.append(payload);
}

bool unseal(std::string_view record, std::string_view magic,
            std::uint64_t version, std::string_view* payload,
            std::string* why) {
  const std::size_t nl = record.find('\n');
  if (nl == std::string_view::npos) return fail(why, "missing header line");
  const std::string header(record.substr(0, nl));
  char found[16] = {};
  std::uint64_t found_version = 0;
  std::uint64_t crc = 0;
  std::uint64_t len = 0;
  if (std::sscanf(header.c_str(), "%15s %" SCNu64 " %" SCNx64 " %" SCNu64,
                  found, &found_version, &crc, &len) != 4 ||
      std::string_view(found) != magic) {
    return fail(why, "malformed header");
  }
  if (found_version != version) return fail(why, "unsupported record version");
  const std::string_view body = record.substr(nl + 1);
  if (body.size() != len) return fail(why, "length mismatch (torn write?)");
  if (crc32(body.data(), body.size()) != crc) return fail(why, "CRC mismatch");
  *payload = body;
  return true;
}

SealedDir::SealedDir(fs::path directory, std::string magic,
                     std::uint64_t version, std::string suffix,
                     std::function<void()> on_quarantined)
    : dir_(std::move(directory)),
      magic_(std::move(magic)),
      version_(version),
      suffix_(std::move(suffix)),
      on_quarantined_(std::move(on_quarantined)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

bool SealedDir::publish(const std::string& name,
                        std::string_view payload) const try {
  const fs::path target = dir_ / name;
  const fs::path tmp = target.string() + std::string(kTmpSuffix);
  if (!write_synced(tmp, seal(magic_, version_, payload))) return false;
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return sync_directory(dir_);
} catch (...) {
  // Publishes sit on decode and repair paths: surprises degrade to "not
  // persisted", which every caller counts.
  return false;
}

SealedDir::LoadResult SealedDir::load(const fs::path& path,
                                      const Accept& accept,
                                      std::string* why) const {
  std::string raw;
  std::string reason = "unreadable record";
  std::string_view payload;
  const ReadResult read = read_file(path, &raw);
  if (read == ReadResult::kMissing) return LoadResult::kMissing;
  if (read == ReadResult::kOk &&
      unseal(raw, magic_, version_, &payload, &reason) &&
      accept(payload, &reason)) {
    return LoadResult::kLoaded;
  }
  quarantine(path);
  if (why != nullptr) *why = std::move(reason);
  return LoadResult::kRejected;
}

bool SealedDir::quarantine(const fs::path& path) const {
  std::error_code ec;
  fs::rename(path, path.string() + std::string(kQuarantineSuffix), ec);
  if (ec) {
    fs::remove(path, ec);  // rename failed: fail closed, never serve it
    return false;
  }
  if (on_quarantined_) on_quarantined_();
  return true;
}

std::vector<fs::path> SealedDir::records(std::string_view prefix) const {
  std::vector<fs::path> out;
  for (fs::path& path : regular_files(dir_)) {
    const std::string name = path.filename().string();
    if (name.ends_with(suffix_) && name.starts_with(prefix)) {
      out.push_back(std::move(path));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

SealedDir::CheckReport SealedDir::check(std::string_view prefix,
                                        const Accept& accept) const {
  CheckReport report;
  for (const fs::path& path : records(prefix)) {
    const LoadResult result = load(path, accept);
    if (result == LoadResult::kMissing) continue;  // raced with a remove
    ++report.checked;
    ++(result == LoadResult::kLoaded ? report.verified : report.quarantined);
  }
  return report;
}

std::vector<SealedDir::Entry> SealedDir::list() const {
  std::vector<Entry> entries;
  for (const fs::path& path : regular_files(dir_)) {
    std::string name = path.filename().string();
    const bool quarantined = name.ends_with(kQuarantineSuffix);
    if (!quarantined && !name.ends_with(suffix_)) continue;
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(path, ec);
    entries.push_back(Entry{std::move(name), ec ? 0 : bytes, quarantined});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.filename < b.filename;
            });
  return entries;
}

SealedDir::GcReport SealedDir::gc(
    std::size_t keep_quarantined,
    const std::function<bool(std::string_view payload)>& collectable) const {
  GcReport report;
  std::vector<fs::path> quarantined;
  for (fs::path& path : regular_files(dir_)) {
    const std::string name = path.filename().string();
    std::string raw;
    std::string_view payload;
    std::error_code ec;
    if (name.ends_with(kQuarantineSuffix)) {
      quarantined.push_back(std::move(path));
    } else if (name.ends_with(kTmpSuffix)) {
      report.removed_tmp += fs::remove(path, ec) ? 1 : 0;
    } else if (collectable && name.ends_with(suffix_) &&
               read_file(path, &raw) == ReadResult::kOk &&
               unseal(raw, magic_, version_, &payload) &&
               collectable(payload)) {
      // Only records whose seal holds are collectable; anything
      // unreadable stays for a load to judge.
      report.removed_records += fs::remove(path, ec) ? 1 : 0;
    }
  }
  // Newest quarantined files survive as the forensic window.
  std::sort(quarantined.begin(), quarantined.end(),
            [](const fs::path& a, const fs::path& b) {
              std::error_code ta_ec;
              std::error_code tb_ec;
              const auto ta = fs::last_write_time(a, ta_ec);
              const auto tb = fs::last_write_time(b, tb_ec);
              if (ta != tb) return ta > tb;
              return a.filename().string() > b.filename().string();
            });
  for (std::size_t i = keep_quarantined; i < quarantined.size(); ++i) {
    std::error_code ec;
    report.removed_quarantined += fs::remove(quarantined[i], ec) ? 1 : 0;
  }
  return report;
}

}  // namespace ppm
