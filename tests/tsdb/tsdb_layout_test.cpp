// Layout oracle for the columnar series store: every read of a ts_series
// (size, indexing, iteration, front/back, range, values_in, snapshot
// round trip) must match a plain time-ordered vector of (hour, value)
// points fed the same appends — gaps, equal hours, negative hours and
// non-finite values included. The snapshot bytes are also pinned
// against a fixture, so the column layout cannot change the format.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tsdb/tsdb.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

hour_stamp h(std::int64_t n) { return hour_stamp{n}; }

bool same_point(const ts_point& a, const ts_point& b) {
  return a.at == b.at && std::bit_cast<std::uint64_t>(a.value) ==
                             std::bit_cast<std::uint64_t>(b.value);
}

double draw_value(rng& r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (r.uniform_int(0, 7)) {
    case 0: return -0.0;
    case 1: return kInf;
    case 2: return -kInf;
    case 3: {
      // Quiet NaN with a payload, either sign: the bits must survive.
      const auto payload = static_cast<std::uint64_t>(r.uniform_int(1, 0xFFFF));
      const std::uint64_t sign = r.bernoulli(0.5) ? std::uint64_t{1} << 63 : 0;
      return std::bit_cast<double>(sign | 0x7FF8000000000000u | payload);
    }
    case 4: return std::numeric_limits<double>::denorm_min();
    default: return r.uniform(-1e3, 1e3);
  }
}

// A time-ordered append sequence from a negative start hour: mostly
// consecutive hours, broken by gaps and by repeats of the last hour.
std::vector<ts_point> random_points(rng& r, std::size_t n) {
  std::vector<ts_point> out;
  std::int64_t at = r.uniform_int(-400, 40);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({h(at), draw_value(r)});
    switch (r.uniform_int(0, 9)) {
      case 0: break;                                  // equal hour
      case 1: at += r.uniform_int(2, 40); break;      // gap
      default: ++at; break;
    }
  }
  return out;
}

// Every read of `view` against ref[first, first + n).
::testing::AssertionResult view_matches(const ts_point_view& view,
                                        const std::vector<ts_point>& ref,
                                        std::size_t first, std::size_t n) {
  if (view.size() != n || view.empty() != (n == 0) ||
      view.values().size() != n) {
    return ::testing::AssertionFailure()
           << "size " << view.size() << ", expected " << n;
  }
  std::size_t i = 0;
  for (const ts_point p : view) {
    const ts_point& want = ref[first + i];
    if (!same_point(p, want) || !same_point(view[i], want) ||
        !same_point({want.at, view.values()[i]}, want)) {
      return ::testing::AssertionFailure() << "point " << i << " differs";
    }
    ++i;
  }
  if (i != n) return ::testing::AssertionFailure() << "iterated " << i;
  if (n > 0 && (!same_point(view.front(), ref[first]) ||
                !same_point(view.back(), ref[first + n - 1]))) {
    return ::testing::AssertionFailure() << "front/back differ";
  }
  return ::testing::AssertionSuccess();
}

// The old store's range: lower_bound on the sorted vector.
std::pair<std::size_t, std::size_t> oracle_range(
    const std::vector<ts_point>& ref, hour_stamp begin, hour_stamp end) {
  const auto by_hour = [](const ts_point& p, hour_stamp x) {
    return p.at < x;
  };
  const auto lo = std::lower_bound(ref.begin(), ref.end(), begin, by_hour);
  const auto hi = std::lower_bound(lo, ref.end(), end, by_hour);
  return {static_cast<std::size_t>(lo - ref.begin()),
          static_cast<std::size_t>(hi - lo)};
}

TEST(TsdbLayout, MatchesVectorOracleOverRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    rng r(seed);
    const std::vector<ts_point> ref =
        random_points(r, static_cast<std::size_t>(r.uniform_int(0, 90)));
    ts_series s("m", {});
    if (seed % 2 == 0) s.reserve(ref.size());
    for (const ts_point& p : ref) s.append(p.at, p.value);
    ASSERT_EQ(s.size(), ref.size()) << "seed " << seed;
    ASSERT_TRUE(view_matches(s.points(), ref, 0, ref.size()))
        << "seed " << seed;
    ASSERT_EQ(s.values().size(), ref.size());

    // Range ends at every boundary: each point's hour, one either side,
    // and hours before the first and after the last point.
    std::vector<std::int64_t> probes = {-100000, 100000};
    for (const ts_point& p : ref) {
      for (std::int64_t d = -1; d <= 1; ++d) {
        probes.push_back(p.at.hours_since_epoch() + d);
      }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    for (const std::int64_t b : probes) {
      for (const std::int64_t e : probes) {
        const auto [first, n] = oracle_range(ref, h(b), h(e));
        ASSERT_TRUE(view_matches(s.range(h(b), h(e)), ref, first, n))
            << "seed " << seed << " range [" << b << ", " << e << ")";
        const std::vector<double> values = s.values_in(h(b), h(e));
        ASSERT_EQ(values.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_point({ref[first + i].at, values[i]},
                                 ref[first + i]));
        }
        // Splitting a range view at its midpoint hour.
        const std::int64_t mid = b + (e - b) / 2;
        const auto [head, tail] = s.range(h(b), h(e)).split(h(mid));
        const std::size_t cut =
            std::clamp(oracle_range(ref, h(mid), h(mid)).first, first,
                       first + n);
        ASSERT_TRUE(view_matches(head, ref, first, cut - first))
            << "seed " << seed << " split [" << b << ", " << e << ") at "
            << mid;
        ASSERT_TRUE(view_matches(tail, ref, cut, first + n - cut))
            << "seed " << seed << " split [" << b << ", " << e << ") at "
            << mid;
      }
    }

    // Cutting the whole series into consecutive pieces, as a day-by-day
    // scan does: every piece and every remainder matches.
    for (std::int64_t step = 1; step <= 30; step += 7) {
      ts_point_view rest = s.points();
      std::size_t done = 0;
      for (std::int64_t at = -500; !rest.empty(); at += step) {
        const auto [piece, after] = rest.split(h(at));
        const std::size_t cut = oracle_range(ref, h(at), h(at)).first;
        ASSERT_TRUE(view_matches(piece, ref, done, cut - done))
            << "seed " << seed << " step " << step << " at " << at;
        ASSERT_TRUE(view_matches(after, ref, cut, ref.size() - cut));
        rest = after;
        done = cut;
      }
    }
  }
}

TEST(TsdbLayout, OutOfOrderAppendThrowsAndKeepsTheSeries) {
  ts_series s("m", {});
  s.append(h(-2), 1.0);
  s.append(h(-1), 2.0);
  s.append(h(-1), 3.0);
  EXPECT_THROW(s.append(h(-3), 4.0), invalid_argument_error);
  EXPECT_THROW(s.append(hour_stamp{std::numeric_limits<std::int64_t>::min()},
                        4.0),
               invalid_argument_error);
  const std::vector<ts_point> ref = {{h(-2), 1.0}, {h(-1), 2.0}, {h(-1), 3.0}};
  EXPECT_TRUE(view_matches(s.points(), ref, 0, ref.size()));
  s.append(h(0), 5.0);
  EXPECT_EQ(s.points().back().at, h(0));
  EXPECT_EQ(s.size(), 4u);
}

TEST(TsdbLayout, EmptySeriesReadsAsEmpty) {
  const ts_series s("m", {});
  EXPECT_TRUE(s.points().empty());
  EXPECT_TRUE(s.values().empty());
  EXPECT_TRUE(s.range(h(-5), h(5)).empty());
  EXPECT_TRUE(s.range(h(-5), h(5)).values().empty());
  EXPECT_TRUE(s.values_in(h(-5), h(5)).empty());
  EXPECT_EQ(s.points().begin(), s.points().end());
}

TEST(TsdbLayout, ReserveNeedsAValidRef) {
  tsdb db;
  const series_ref ref = db.open_series("m", {});
  db.reserve(ref, 100);
  db.write(ref, h(0), 1.0);
  EXPECT_EQ(db.series_at(ref).size(), 1u);
  EXPECT_THROW(db.reserve(ref + 1, 10), not_found_error);
}

std::string snapshot_bytes(const tsdb& db) {
  std::ostringstream os;
  db.snapshot_to(os);
  return os.str();
}

TEST(TsdbLayout, SnapshotRoundTripMatchesOracle) {
  tsdb db;
  std::vector<std::vector<ts_point>> refs;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    rng r(seed);
    refs.push_back(
        random_points(r, static_cast<std::size_t>(r.uniform_int(0, 400))));
    const series_ref ref =
        db.open_series("m", {{"series", std::to_string(seed)}});
    for (const ts_point& p : refs.back()) db.write(ref, p.at, p.value);
  }
  const std::string bytes = snapshot_bytes(db);
  std::istringstream is(bytes);
  tsdb copy;
  copy.restore_from(is);
  ASSERT_EQ(copy.series_count(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const ts_series& s = copy.series_at(static_cast<series_ref>(i));
    EXPECT_TRUE(view_matches(s.points(), refs[i], 0, refs[i].size()))
        << "series " << i;
  }
  EXPECT_EQ(snapshot_bytes(copy), bytes);
}

TEST(TsdbLayout, SnapshotStreamsPastOneChunk) {
  // ~1.8 MB of points: the snapshot is written in several bounded chunks
  // under a running CRC, and must still restore (CRC-checked) exactly.
  tsdb db;
  const series_ref a = db.open_series("a", {});
  const series_ref b = db.open_series("b", {});
  for (std::int64_t i = 0; i < 100000; ++i) {
    db.write(a, h(i), static_cast<double>(i) * 0.5);
    db.write(b, h(i / 2), -static_cast<double>(i));
  }
  const std::string bytes = snapshot_bytes(db);
  ASSERT_GT(bytes.size(), std::size_t{1} << 20);
  std::istringstream is(bytes);
  tsdb copy;
  copy.restore_from(is);
  EXPECT_EQ(copy.point_count(), db.point_count());
  EXPECT_EQ(copy.series_at(b).points()[99999].at, h(49999));
  EXPECT_EQ(snapshot_bytes(copy), bytes);
}

TEST(TsdbLayout, HostilePointCountIsTypedError) {
  // A CRC-valid snapshot whose one series claims 2^60 points: refused by
  // the bounded count before anything is sized.
  binary_writer w;
  w.u32(0x53544C43u);  // "CLTS"
  w.u32(1);
  w.varint(1);
  w.str("m");
  w.varint(0);
  w.varint(std::uint64_t{1} << 60);
  w.svarint(0);
  w.f64(1.0);
  const std::string payload = w.take();
  binary_writer trailer;
  trailer.u32(crc32(payload));
  std::istringstream is(payload + trailer.bytes());
  tsdb db;
  EXPECT_THROW(db.restore_from(is), invalid_argument_error);
}

// Hex of snapshot_to for the store below, as written by the earlier
// (hour, value)-vector layout: the column layout must not move a byte.
constexpr const char* kFixtureHex =
    "434c545301000000030d646f776e6c6f61645f6d6270730206726567696f6e087573"
    "2d77657374310673657276657201370905000000000000f83f020000000000000080"
    "02000000000000f07f02000000000000f0ff0a230100000000f87f029a9999999999"
    "b93f000100000000000000020000000000004540ba010000000000000a400a6c6174"
    "656e63795f6d730204636974790a53c3a36f205061756c6f06736572766572013700"
    "0b746573745f737461747573000180897a0000000000000040bd07b833";

tsdb fixture_store() {
  tsdb db;
  const series_ref a = db.open_series(
      "download_mbps", {{"region", "us-west1"}, {"server", "7"}});
  db.open_series("latency_ms", {{"city", "S\xC3\xA3o Paulo"}, {"server", "7"}});
  const series_ref c = db.open_series("test_status", {});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int64_t hours[] = {-3, -2, -1, 0, 5, 6, 6, 7, 100};
  const double values[] = {
      1.5, -0.0, kInf, -kInf,
      std::bit_cast<double>(std::uint64_t{0x7FF8000000000123}),
      0.1, std::numeric_limits<double>::denorm_min(), 42.0, 3.25};
  for (std::size_t i = 0; i < std::size(hours); ++i) {
    db.write(a, h(hours[i]), values[i]);
  }
  db.write(c, h(1000000), 2.0);
  return db;
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(TsdbLayout, SnapshotBytesMatchFixture) {
  const tsdb db = fixture_store();
  EXPECT_EQ(hex(snapshot_bytes(db)), kFixtureHex);
  // And the fixture restores to the same store.
  std::istringstream is(snapshot_bytes(db));
  tsdb copy;
  copy.restore_from(is);
  EXPECT_EQ(hex(snapshot_bytes(copy)), kFixtureHex);
}

}  // namespace
}  // namespace clasp
