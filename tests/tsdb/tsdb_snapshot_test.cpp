// Durability layer round-trips: snapshot/restore of the store across
// every series shape, through streams and through files.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tsdb/tsdb.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;

hour_stamp h(std::int64_t n) { return hour_stamp{n}; }

std::string snapshot_bytes(const tsdb& db) {
  std::ostringstream os;
  db.snapshot_to(os);
  return os.str();
}

tsdb restored(const std::string& bytes) {
  std::istringstream is(bytes);
  tsdb db;
  db.restore_from(is);
  return db;
}

// A store exercising every series shape the campaign produces: empty
// interned series, single-point, long delta-encoded runs, negative
// hours, non-finite and signed-zero values, non-ASCII tag values (server
// names are arbitrary UTF-8 in the registry), tag values with the
// '\x1f' key separator, and multiple metrics.
tsdb build_fixture() {
  tsdb db;
  db.open_series("interned_only", {{"server", "Zürich-Großstadt"}});
  db.write("download_mbps", {{"server", "서울-1"}, {"region", "us-west1"}},
           h(-5), 512.5);
  db.write("download_mbps", {{"server", "서울-1"}, {"region", "us-west1"}},
           h(0), 480.25);
  db.write("download_mbps", {{"server", "서울-1"}, {"region", "us-west1"}},
           h(1000), -0.0);
  db.write("latency_ms", {{"server", "a\x1f=b"}}, h(3), 12.75);
  db.write("edge_values", {}, h(0),
           std::numeric_limits<double>::infinity());
  db.write("edge_values", {}, h(1),
           std::numeric_limits<double>::denorm_min());
  rng r(99);
  const series_ref ref =
      db.open_series("long_run", {{"server", "42"}, {"tier", "premium"}});
  for (int i = 0; i < 500; ++i) db.write(ref, h(i * 7), r.uniform());
  return db;
}

bool stores_identical(const tsdb& a, const tsdb& b) {
  // The snapshot codec is canonical (insertion order, delta-encoded
  // hours, bit-pattern values), so snapshot equality is store equality.
  return snapshot_bytes(a) == snapshot_bytes(b);
}

TEST(TsdbSnapshot, RoundTripAllSeriesShapes) {
  const tsdb db = build_fixture();
  const tsdb copy = restored(snapshot_bytes(db));
  EXPECT_EQ(copy.series_count(), db.series_count());
  EXPECT_EQ(copy.point_count(), db.point_count());
  EXPECT_TRUE(stores_identical(db, copy));

  // Non-ASCII tag values round-trip exactly and stay queryable.
  const ts_series* s = copy.find(
      "download_mbps", {{"server", "서울-1"}, {"region", "us-west1"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->points().size(), 3u);
  EXPECT_EQ(s->points()[0].at, h(-5));
  // Signed zero survives the bit-pattern codec.
  EXPECT_TRUE(std::signbit(s->points()[2].value));
  EXPECT_NE(copy.find("latency_ms", {{"server", "a\x1f=b"}}), nullptr);
}

TEST(TsdbSnapshot, RestoredRefsEqualOriginals) {
  tsdb db = build_fixture();
  tsdb copy = restored(snapshot_bytes(db));
  // Interning the same (metric, tags) in both stores yields the same ref
  // (series are serialized in insertion order), so refs a campaign
  // interned before a checkpoint stay valid against the restored store.
  const tag_set tags = {{"server", "42"}, {"tier", "premium"}};
  EXPECT_EQ(copy.open_series("long_run", tags),
            db.open_series("long_run", tags));
  // Appending through the restored ref continues the series.
  const series_ref ref = copy.open_series("long_run", tags);
  copy.write(ref, h(500 * 7), 1.0);
  EXPECT_EQ(copy.series_at(ref).points().back().value, 1.0);
}

TEST(TsdbSnapshot, EmptyStoreRoundTrips) {
  const tsdb empty;
  const tsdb copy = restored(snapshot_bytes(empty));
  EXPECT_EQ(copy.series_count(), 0u);
  EXPECT_EQ(copy.point_count(), 0u);
}

TEST(TsdbSnapshot, RestoreReplacesExistingContents) {
  const tsdb db = build_fixture();
  tsdb target;
  target.write("stale_metric", {{"old", "yes"}}, h(0), 1.0);
  std::istringstream is(snapshot_bytes(db));
  target.restore_from(is);
  EXPECT_EQ(target.find("stale_metric", {{"old", "yes"}}), nullptr);
  EXPECT_TRUE(stores_identical(db, target));
}

TEST(TsdbSnapshot, DeterministicBytes) {
  EXPECT_EQ(snapshot_bytes(build_fixture()), snapshot_bytes(build_fixture()));
}

TEST(TsdbSnapshot, RejectsCorruptTruncatedAndWrongMagic) {
  const std::string good = snapshot_bytes(build_fixture());
  tsdb db;

  // Truncation at any of a few cut points (including mid-header).
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                std::size_t{11}, good.size() - 1}) {
    std::istringstream is(good.substr(0, cut));
    EXPECT_THROW(db.restore_from(is), invalid_argument_error) << cut;
  }
  // A flipped payload byte fails the CRC before any parsing.
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 0x01;
  std::istringstream bad_crc(corrupt);
  EXPECT_THROW(db.restore_from(bad_crc), invalid_argument_error);
  // Wrong magic (CRC re-stamped so framing passes, magic check fires).
  std::string wrong_magic = good;
  wrong_magic[0] ^= 0x01;
  binary_writer crc_fix;
  crc_fix.u32(crc32(
      std::string_view(wrong_magic).substr(0, wrong_magic.size() - 4)));
  wrong_magic.replace(wrong_magic.size() - 4, 4, crc_fix.bytes());
  std::istringstream bad_magic(wrong_magic);
  EXPECT_THROW(db.restore_from(bad_magic), invalid_argument_error);
  // A failed restore must not clobber the target store.
  tsdb intact = build_fixture();
  std::istringstream bad_again(corrupt);
  EXPECT_THROW(intact.restore_from(bad_again), invalid_argument_error);
  EXPECT_TRUE(stores_identical(intact, build_fixture()));
}

TEST(TsdbSnapshot, SnapshotLargerThanAReadWindowRoundTrips) {
  // Restore reads 1 MiB at a time: series, points and a tag value that
  // straddle the window edges must come back exactly, through both
  // overloads.
  tsdb db;
  rng r(7);
  for (int s = 0; s < 4; ++s) {
    const series_ref ref = db.open_series(
        "download_mbps", {{"server", std::to_string(s)},
                          {"note", std::string(std::size_t{1} << 20 | 3,
                                               static_cast<char>('a' + s))}});
    for (int i = 0; i < 60000; ++i) db.write(ref, h(i), r.uniform(0, 1000));
  }
  const std::string bytes = snapshot_bytes(db);
  ASSERT_GT(bytes.size(), std::size_t{5} << 20);
  EXPECT_TRUE(stores_identical(db, restored(bytes)));
  const fs::path dir = fs::temp_directory_path() / "clasp_snap_large_test";
  fs::create_directories(dir);
  const std::string path = (dir / "db.snap").string();
  db.snapshot_to(path);
  tsdb copy;
  copy.restore_from(path);
  EXPECT_TRUE(stores_identical(db, copy));
  fs::remove_all(dir);
}

TEST(TsdbSnapshot, PathOverloadsAndMissingFile) {
  const fs::path dir = fs::temp_directory_path() / "clasp_snap_test";
  fs::create_directories(dir);
  const std::string path = (dir / "db.snap").string();
  const tsdb db = build_fixture();
  db.snapshot_to(path);
  tsdb copy;
  copy.restore_from(path);
  EXPECT_TRUE(stores_identical(db, copy));
  EXPECT_THROW(copy.restore_from((dir / "missing.snap").string()),
               not_found_error);
  // A damaged file is refused with the stream overload's typed error,
  // and the store keeps its contents.
  const std::string bytes = snapshot_bytes(db);
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  for (const std::string& bad : {bytes.substr(0, bytes.size() / 2), flipped}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    EXPECT_THROW(copy.restore_from(path), invalid_argument_error);
    EXPECT_TRUE(stores_identical(db, copy));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clasp
