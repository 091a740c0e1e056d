// The sealed-record directory (common/sealed_dir.h) under the plan store,
// the certificate store and the repair journal: seal round trip, every
// way a seal breaks, blocked publishes, blocked quarantines, and gc's
// retention window and collectable predicate. Store-specific re-proofs
// are drilled in each store's own tests.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/sealed_dir.h"
#include "test_util.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;
using test::TempDir;

constexpr std::uint64_t kVersion = 7;

SealedDir make_dir(const TempDir& tmp, int* quarantined = nullptr) {
  return SealedDir(tmp.path(), "TESTREC", kVersion, ".rec", [quarantined] {
    if (quarantined != nullptr) ++*quarantined;
  });
}

// Accepts every payload, remembering the last one.
SealedDir::Accept accept_all(std::string* seen) {
  return [seen](std::string_view payload, std::string*) {
    *seen = payload;
    return true;
  };
}

TEST(SealedDir, SealRoundTrip) {
  const std::string payload("bin\n\0ary\xff", 9);
  const std::string record = seal("TESTREC", kVersion, payload);
  char header[64];
  std::snprintf(header, sizeof header, "TESTREC 7 %08x 9\n",
                crc32(payload.data(), payload.size()));
  EXPECT_EQ(record, header + payload);
  std::string_view out;
  ASSERT_TRUE(unseal(record, "TESTREC", kVersion, &out));
  EXPECT_EQ(out, payload);

  // Through the directory: publish, then load hands back the payload.
  const TempDir tmp("sealed_roundtrip");
  const SealedDir dir = make_dir(tmp);
  ASSERT_TRUE(dir.publish("a.rec", payload));
  EXPECT_EQ(test::read_file(tmp.path() / "a.rec"), record);
  std::string seen;
  EXPECT_EQ(dir.load(tmp.path() / "a.rec", accept_all(&seen)),
            SealedDir::LoadResult::kLoaded);
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(dir.load(tmp.path() / "missing.rec", accept_all(&seen)),
            SealedDir::LoadResult::kMissing);
}

TEST(SealedDir, BrokenSealsAreQuarantinedWithTheirReason) {
  const std::string good = seal("TESTREC", kVersion, "payload bytes");
  std::string flipped = good;
  flipped.back() ^= 0x01;
  const struct {
    const char* name;
    std::string bytes;
    const char* why;
  } cases[] = {
      {"truncated", good.substr(0, good.size() - 3), "length mismatch"},
      {"crc_flip", flipped, "CRC mismatch"},
      {"version_bump", seal("TESTREC", kVersion + 1, "payload bytes"),
       "unsupported record version"},
      {"bad_magic", seal("OTHERREC", kVersion, "payload bytes"),
       "malformed header"},
      {"headerless", "no newline at all", "missing header line"},
  };
  const TempDir tmp("sealed_broken");
  int quarantined = 0;
  const SealedDir dir = make_dir(tmp, &quarantined);
  for (const auto& c : cases) {
    const fs::path path = tmp.path() / (std::string(c.name) + ".rec");
    test::write_file(path, c.bytes);
    std::string_view payload;
    std::string why;
    EXPECT_FALSE(unseal(c.bytes, "TESTREC", kVersion, &payload, &why))
        << c.name;
    std::string seen;
    EXPECT_EQ(dir.load(path, accept_all(&seen), &why),
              SealedDir::LoadResult::kRejected)
        << c.name;
    EXPECT_NE(why.find(c.why), std::string::npos) << c.name << ": " << why;
    EXPECT_FALSE(fs::exists(path)) << c.name;
    EXPECT_TRUE(fs::exists(path.string() + ".quarantined")) << c.name;
  }
  EXPECT_EQ(quarantined, 5);

  // A sound seal the caller's re-proof refuses is quarantined the same
  // way, with the caller's reason.
  ASSERT_TRUE(dir.publish("refused.rec", "claims"));
  std::string why;
  EXPECT_EQ(dir.load(tmp.path() / "refused.rec",
                     [](std::string_view, std::string* reason) {
                       *reason = "re-proof failed";
                       return false;
                     },
                     &why),
            SealedDir::LoadResult::kRejected);
  EXPECT_EQ(why, "re-proof failed");
  EXPECT_TRUE(fs::exists(tmp.path() / "refused.rec.quarantined"));
}

TEST(SealedDir, PublishBlockedAtTmpOrTargetFailsAndLeaksNoTmp) {
  const TempDir tmp("sealed_publish_blocked");
  const SealedDir dir = make_dir(tmp);
  // A directory at the staging path: the write cannot even open. (A
  // directory blocks root too, unlike permission bits.)
  fs::create_directories(tmp.path() / "a.rec.tmp");
  EXPECT_FALSE(dir.publish("a.rec", "x"));
  EXPECT_FALSE(fs::exists(tmp.path() / "a.rec"));

  // A directory at the target: the write succeeds but the rename cannot
  // publish, and the staged file must not be left behind.
  fs::create_directories(tmp.path() / "b.rec");
  EXPECT_FALSE(dir.publish("b.rec", "x"));
  EXPECT_TRUE(fs::is_directory(tmp.path() / "b.rec"));
  EXPECT_FALSE(fs::exists(tmp.path() / "b.rec.tmp"));

  // A publish into a directory that cannot exist fails without throwing.
  test::write_file(tmp.path() / "file", "not a directory");
  const SealedDir nowhere(tmp.path() / "file", "TESTREC", kVersion, ".rec");
  EXPECT_FALSE(nowhere.publish("c.rec", "x"));
}

TEST(SealedDir, BlockedQuarantineRemovesTheRecordAndCountsNothing) {
  const TempDir tmp("sealed_quarantine_blocked");
  int quarantined = 0;
  const SealedDir dir = make_dir(tmp, &quarantined);
  const fs::path path = tmp.path() / "a.rec";
  test::write_file(path, "rotten");
  fs::create_directories(path.string() + ".quarantined");

  std::string seen;
  EXPECT_EQ(dir.load(path, accept_all(&seen)),
            SealedDir::LoadResult::kRejected);
  EXPECT_FALSE(fs::exists(path));  // fail closed: never served again
  EXPECT_TRUE(fs::is_directory(path.string() + ".quarantined"));
  EXPECT_EQ(quarantined, 0);
}

TEST(SealedDir, ScansListOnlyRecordsSortedByName) {
  const TempDir tmp("sealed_scan");
  const SealedDir dir = make_dir(tmp);
  ASSERT_TRUE(dir.publish("k2-b.rec", "b"));
  ASSERT_TRUE(dir.publish("k1-a.rec", "a"));
  ASSERT_TRUE(dir.publish("k2-a.rec", "c"));
  test::write_file(tmp.path() / "k2-c.rec.tmp", "torn");
  test::write_file(tmp.path() / "k2-d.rec.quarantined", "rot");
  test::write_file(tmp.path() / "k2-notes.txt", "foreign");
  fs::create_directories(tmp.path() / "k2-dir.rec");

  EXPECT_EQ(dir.records("k2"), (std::vector<fs::path>{
                                   tmp.path() / "k2-a.rec",
                                   tmp.path() / "k2-b.rec"}));
  EXPECT_EQ(dir.records().size(), 3u);

  std::vector<std::string> listed;
  for (const auto& entry : dir.list()) {
    listed.push_back(entry.filename);
    EXPECT_EQ(entry.quarantined, entry.filename.ends_with(".quarantined"));
  }
  EXPECT_EQ(listed, (std::vector<std::string>{"k1-a.rec", "k2-a.rec",
                                              "k2-b.rec",
                                              "k2-d.rec.quarantined"}));

  // check() re-runs load over the prefix: one refused record, one kept.
  const auto report = dir.check(
      "k2", [](std::string_view payload, std::string* why) {
        *why = "refused";
        return payload != "b";
      });
  EXPECT_EQ(report.checked, 2u);
  EXPECT_EQ(report.verified, 1u);
  EXPECT_EQ(report.quarantined, 1u);
}

TEST(SealedDir, GcKeepsTheNewestQuarantinedFilesByPinnedMtime) {
  const TempDir tmp("sealed_gc_window");
  const SealedDir dir = make_dir(tmp);
  ASSERT_TRUE(dir.publish("healthy.rec", "keep me"));
  test::write_file(tmp.path() / "orphan.rec.tmp", "torn");
  const auto now = fs::file_time_type::clock::now();
  for (int i = 0; i < 4; ++i) {
    const fs::path p =
        tmp.path() / ("rot" + std::to_string(i) + ".rec.quarantined");
    test::write_file(p, "junk");
    // Distinct mtimes, oldest first, so the retention order is pinned.
    fs::last_write_time(p, now - std::chrono::hours(10 - i));
  }

  const auto gc = dir.gc(/*keep_quarantined=*/2);
  EXPECT_EQ(gc.removed_quarantined, 2u);
  EXPECT_EQ(gc.removed_tmp, 1u);
  EXPECT_EQ(gc.removed_records, 0u);
  EXPECT_FALSE(fs::exists(tmp.path() / "rot0.rec.quarantined"));
  EXPECT_FALSE(fs::exists(tmp.path() / "rot1.rec.quarantined"));
  EXPECT_TRUE(fs::exists(tmp.path() / "rot2.rec.quarantined"));
  EXPECT_TRUE(fs::exists(tmp.path() / "rot3.rec.quarantined"));
  EXPECT_TRUE(fs::exists(tmp.path() / "healthy.rec"));

  EXPECT_EQ(dir.gc(10).removed_quarantined, 0u);  // keep >= count
  EXPECT_EQ(dir.gc(0).removed_quarantined, 2u);
  EXPECT_TRUE(fs::exists(tmp.path() / "healthy.rec"));
}

TEST(SealedDir, GcCollectsOnlySoundRecordsThePredicateTakes) {
  const TempDir tmp("sealed_gc_collectable");
  const SealedDir dir = make_dir(tmp);
  ASSERT_TRUE(dir.publish("done.rec", "committed"));
  ASSERT_TRUE(dir.publish("open.rec", "intent"));
  // Damaged, but its payload would satisfy the predicate: a broken seal
  // is never collected — it stays for a load to judge.
  std::string rotten = seal("TESTREC", kVersion, "committed");
  rotten.back() ^= 0x01;
  test::write_file(tmp.path() / "rotten.rec", rotten);

  const auto gc = dir.gc(0, [](std::string_view payload) {
    return payload == "committed";
  });
  EXPECT_EQ(gc.removed_records, 1u);
  EXPECT_FALSE(fs::exists(tmp.path() / "done.rec"));
  EXPECT_TRUE(fs::exists(tmp.path() / "open.rec"));
  EXPECT_TRUE(fs::exists(tmp.path() / "rotten.rec"));
}

// The drills above plant files with test::write_file in a test::TempDir;
// both must fail loudly rather than leave a drill testing nothing.
TEST(TestUtil, TempDirStartsEmptyAndWriteFileLandsInIt) {
  const TempDir tmp("util_tempdir");
  ASSERT_TRUE(std::filesystem::is_directory(tmp.path()));
  EXPECT_TRUE(std::filesystem::is_empty(tmp.path()));
  test::write_file(tmp.path() / "f", "bytes");
  EXPECT_EQ(test::read_file(tmp.path() / "f"), "bytes");
}

TEST(TestUtil, WriteFileIntoMissingDirectoryThrows) {
  const TempDir tmp("util_missing");
  EXPECT_THROW(test::write_file(tmp.path() / "missing" / "f", "bytes"),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(tmp.path() / "missing"));
}

}  // namespace
}  // namespace ppm
