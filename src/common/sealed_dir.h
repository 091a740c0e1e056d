// One directory of sealed records (ppm::SealedDir): the file handling
// under the plan store (plan_store/), the certificate store
// (search_coeff/cert_store) and the scrub repair journal (scrub/journal).
// Each store keeps only its file naming, payload codec, re-proof and
// metrics.
//
// Seal format, one record per file: `<MAGIC> <version> <crc32 hex>
// <len>\n<payload>`. The CRC32 covers the payload only.
//
// Durable publish: the sealed bytes go to `<name>.tmp` with write +
// fsync, are renamed onto `<name>`, then the directory is fsynced. Once
// publish() returns true the record survives process crash and power
// loss; readers only ever observe complete records.
//
// Zero-trust load: read, unseal, then the caller's accept callback. Any
// failure quarantines the record — renamed to `<name>.quarantined`, or
// removed when that rename fails (fail closed).
//
// Not synchronized: each store serializes its calls on its own mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ppm {

/// `payload` under a `<magic> <version> <crc32 hex> <len>\n` header.
std::string seal(std::string_view magic, std::uint64_t version,
                 std::string_view payload);

/// Checks magic, version, length and CRC. On success `*payload` views
/// the sealed bytes inside `record`; on failure `*why` (if non-null)
/// receives the reason.
bool unseal(std::string_view record, std::string_view magic,
            std::uint64_t version, std::string_view* payload,
            std::string* why = nullptr);

class SealedDir {
 public:
  /// Records are `*<suffix>` files sealed with `magic`/`version`. Creates
  /// `directory` if it can (never throws). `on_quarantined`, when set,
  /// runs once per record actually renamed aside.
  SealedDir(std::filesystem::path directory, std::string magic,
            std::uint64_t version, std::string suffix,
            std::function<void()> on_quarantined = {});

  const std::filesystem::path& directory() const { return dir_; }

  /// Durably publish `payload`, sealed, as `name`, replacing any previous
  /// record. False on any failure, leaving no `.tmp` behind; never throws.
  bool publish(const std::string& name, std::string_view payload) const;

  enum class LoadResult {
    kLoaded,    ///< seal held and `accept` took the payload
    kMissing,   ///< no regular file at the path
    kRejected,  ///< unreadable, bad seal or refused: quarantined
  };
  /// Returns false, setting `*why`, to refuse a payload.
  using Accept =
      std::function<bool(std::string_view payload, std::string* why)>;
  LoadResult load(const std::filesystem::path& path, const Accept& accept,
                  std::string* why = nullptr) const;

  /// Rename `path` to `<path>.quarantined`, or remove it when that fails.
  /// True only for a successful rename.
  bool quarantine(const std::filesystem::path& path) const;

  /// Record files whose name starts with `prefix`, sorted by name.
  std::vector<std::filesystem::path> records(
      std::string_view prefix = {}) const;

  struct CheckReport {
    std::size_t checked = 0;      ///< records examined
    std::size_t verified = 0;     ///< records accepted
    std::size_t quarantined = 0;  ///< records rejected
  };
  /// load() every record under `prefix`.
  CheckReport check(std::string_view prefix, const Accept& accept) const;

  /// A record or quarantined file as seen on disk (no verification).
  struct Entry {
    std::string filename;
    std::uintmax_t bytes = 0;
    bool quarantined = false;
  };
  /// Records and quarantined files, sorted by name; nothing else.
  std::vector<Entry> list() const;

  struct GcReport {
    std::size_t removed_records = 0;  ///< taken by `collectable`
    std::size_t removed_quarantined = 0;
    std::size_t removed_tmp = 0;
  };
  /// Remove every `.tmp`, all but the newest `keep_quarantined`
  /// quarantined files (by write time, names breaking ties), and every
  /// record whose seal holds and whose payload `collectable` accepts.
  GcReport gc(std::size_t keep_quarantined,
              const std::function<bool(std::string_view payload)>&
                  collectable = {}) const;

 private:
  std::filesystem::path dir_;
  std::string magic_;
  std::uint64_t version_;
  std::string suffix_;
  std::function<void()> on_quarantined_;
};

}  // namespace ppm
