// Durable write-ahead repair journal (ppm::scrub).
//
// Every scrub repair is journaled in two phases:
//
//   1. begin()  — before any repair work, an *intent* record naming the
//                 stripe and the damaged blocks is published;
//   2. commit() — after the repair completed, was digest-verified, and
//                 (when a writer is attached) written back, the record
//                 is atomically replaced by a *committed* one claiming
//                 exactly the blocks that were verified repaired.
//
// Records are one file each, sealed like the plan/cert stores:
// `PPMSCRUBJ <version> <crc32 hex> <len>\n<payload>`, published through
// common/sealed_dir.h — written and fsynced under a `.tmp` sibling,
// renamed into place, then the directory fsynced. Once begin() or
// commit() returns success, the record survives a process crash and a
// power loss; a crash at any instant leaves either the previous record
// state or the next, never a torn file a reader could trust. (A power
// cut between the rename and the directory fsync is not yet drilled;
// that drill waits for a filesystem-fault seam.) A crash between begin
// and commit leaves an intent-only record: that is the evidence
// Scrubber::replay feeds on after restart.
//
// The trust model mirrors docs/PLAN_STORE.md: nothing read back from
// disk is believed. load_all() re-checks the seal and bounds-checks the
// parse, quarantining failures (SealedDir::load); replay re-verifies
// every *claimed-repaired* block byte-for-byte against the fleet's
// expected digests and quarantines records whose claims do not hold,
// rather than trusting the record (scrub/scrub.h). gc() collects
// committed records, stale temporaries and aged-out quarantined files;
// intent records are never collected — they are actionable until a
// commit supersedes them.
//
// Thread-safety: all operations are serialized by an internal mutex;
// begin/commit never throw on I/O failure (the repair path is a serving
// path) — they count scrub.journal_store_failures and return failure.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/sealed_dir.h"

namespace ppm::scrub {

/// One journal record as trusted after the zero-trust load.
struct JournalRecord {
  std::uint64_t seq = 0;
  std::string stripe_id;
  bool committed = false;               ///< false: write-ahead intent only
  std::vector<std::size_t> blocks;      ///< damaged (intent) / repaired
  std::vector<std::uint32_t> crc;       ///< expected CRC32 per block
};

class RepairJournal {
 public:
  /// Opens (creating if needed) the journal directory and resumes the
  /// sequence counter past every record already on disk.
  explicit RepairJournal(std::filesystem::path directory);

  /// Publish a write-ahead intent for repairing `blocks` of `stripe_id`
  /// (`crc[i]` is the expected digest of `blocks[i]`). Returns the
  /// record's sequence number, or nullopt on I/O failure.
  std::optional<std::uint64_t> begin(const std::string& stripe_id,
                                     const std::vector<std::size_t>& blocks,
                                     const std::vector<std::uint32_t>& crc);

  /// Seal record `seq` as committed, claiming exactly `repaired` (with
  /// digests `crc`) — possibly a subset of the intent for partial
  /// repairs. Only records begun by this instance can commit. False on
  /// unknown seq or I/O failure; the intent survives either way.
  bool commit(std::uint64_t seq, const std::vector<std::size_t>& repaired,
              const std::vector<std::uint32_t>& crc);

  /// Zero-trust load of every record: seal re-checked, parse
  /// bounds-checked; files failing either are quarantined. Sorted by seq.
  std::vector<JournalRecord> load_all();

  /// Rename record `seq` aside as `.quarantined` (replay calls this when
  /// a committed record's claims fail re-verification). True only when
  /// the rename succeeded; a record whose rename fails is removed.
  bool quarantine(std::uint64_t seq);

  /// Journal records and quarantined files as seen on disk (no
  /// verification), sorted by name.
  using Entry = SealedDir::Entry;
  std::vector<Entry> list() const;

  /// Collect committed records, stale `.tmp` files, and all but the
  /// newest `keep_quarantined` quarantined files. Intents are kept.
  struct GcReport {
    std::size_t removed_committed = 0;
    std::size_t removed_quarantined = 0;
    std::size_t removed_tmp = 0;
  };
  GcReport gc(std::size_t keep_quarantined = 0);

  const std::filesystem::path& directory() const { return dir_.directory(); }

  /// Canonical record file name for a sequence number.
  static std::string record_filename(std::uint64_t seq);

  /// The identifier a stripe id is journaled under (whitespace and
  /// non-portable characters mapped to '_'). Replay matches targets to
  /// records through this.
  static std::string sanitize(const std::string& stripe_id);

 private:
  SealedDir dir_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, JournalRecord> pending_;  ///< intents we begun
};

}  // namespace ppm::scrub
