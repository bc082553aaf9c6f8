#include "clasp/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace clasp {
namespace {

constexpr timezone_offset kUtc{0};

// Build a series with a fixed daily pattern over `days` days starting at
// the 2020-05-01 epoch. `value_at(local_hour, day)` supplies values.
template <typename Fn>
ts_series make_series(int days, Fn value_at, timezone_offset tz = kUtc) {
  ts_series s("download_mbps", {{"server", "1"}});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int d = 0; d < days; ++d) {
    for (int h = 0; h < 24; ++h) {
      const hour_stamp t = start + d * 24 + h;
      s.append(t, value_at(t.local_hour_of_day(tz), d));
    }
  }
  return s;
}

TEST(DailyVariabilityTest, FlatSeriesHasZeroV) {
  const ts_series s = make_series(5, [](unsigned, int) { return 400.0; });
  const auto days = daily_variability(s, kUtc);
  ASSERT_EQ(days.size(), 5u);
  for (const day_variability& d : days) {
    EXPECT_DOUBLE_EQ(d.v, 0.0);
    EXPECT_EQ(d.samples, 24u);
  }
}

TEST(DailyVariabilityTest, KnownPeakToTrough) {
  // 500 at night, 250 in the evening: V = (500-250)/500 = 0.5.
  const ts_series s = make_series(3, [](unsigned h, int) {
    return (h >= 19 && h <= 22) ? 250.0 : 500.0;
  });
  for (const day_variability& d : daily_variability(s, kUtc)) {
    EXPECT_DOUBLE_EQ(d.v, 0.5);
    EXPECT_DOUBLE_EQ(d.t_max, 500.0);
    EXPECT_DOUBLE_EQ(d.t_min, 250.0);
  }
}

TEST(DailyVariabilityTest, SparseDaysSkipped) {
  ts_series s("m", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int h = 0; h < 5; ++h) s.append(start + h, 100.0);  // 5 samples only
  EXPECT_TRUE(daily_variability(s, kUtc, 12).empty());
  EXPECT_EQ(daily_variability(s, kUtc, 5).size(), 1u);
}

TEST(DailyVariabilityTest, TimezoneBoundsDays) {
  // A dip spanning 23:00-01:00 UTC falls within one local day at UTC-8.
  const ts_series s = make_series(4, [](unsigned h, int) {
    return (h >= 15 && h <= 17) ? 100.0 : 400.0;  // local-hour based
  }, timezone_offset{-8});
  const auto days = daily_variability(s, timezone_offset{-8});
  for (const auto& d : days) {
    if (d.samples == 24) EXPECT_NEAR(d.v, 0.75, 1e-12);
  }
}

TEST(IntradayLabelTest, LabelsMatchThreshold) {
  const ts_series s = make_series(2, [](unsigned h, int) {
    return (h == 20) ? 100.0 : 500.0;  // V_H = 0.8 at hour 20
  });
  const auto labels = intraday_labels(s, kUtc, 0.5);
  std::size_t congested = 0;
  for (const hour_label& l : labels) {
    EXPECT_GE(l.v_h, 0.0);
    EXPECT_LE(l.v_h, 1.0);
    if (l.congested) {
      ++congested;
      EXPECT_EQ(l.at.utc_hour_of_day(), 20u);
      EXPECT_NEAR(l.v_h, 0.8, 1e-12);
    }
  }
  EXPECT_EQ(congested, 2u);  // one per day
}

TEST(SweepTest, FractionsMonotoneDecreasing) {
  rng r(3);
  const ts_series s = make_series(20, [&](unsigned h, int) {
    return 500.0 - 200.0 * std::sin(h / 24.0 * 6.283) + r.uniform(-30, 30);
  });
  const std::vector<const ts_series*> series{&s};
  const std::vector<timezone_offset> tz{kUtc};
  const threshold_sweep sweep = sweep_thresholds(series, tz);
  ASSERT_EQ(sweep.thresholds.size(), sweep.day_fraction.size());
  for (std::size_t i = 1; i < sweep.thresholds.size(); ++i) {
    EXPECT_LE(sweep.day_fraction[i], sweep.day_fraction[i - 1] + 1e-12);
    EXPECT_LE(sweep.hour_fraction[i], sweep.hour_fraction[i - 1] + 1e-12);
  }
  EXPECT_DOUBLE_EQ(sweep.day_fraction.front(), 1.0);   // V > 0 everywhere
  EXPECT_DOUBLE_EQ(sweep.day_fraction.back(), 0.0);    // V never > 1
}

TEST(SweepTest, SizeMismatchRejected) {
  const ts_series s = make_series(2, [](unsigned, int) { return 1.0; });
  EXPECT_THROW(sweep_thresholds({&s}, {}), invalid_argument_error);
  EXPECT_THROW(sweep_thresholds({&s}, {kUtc}, 2), invalid_argument_error);
}

TEST(SweepTest, ElbowFindsTransition) {
  // Series whose V(s,d) is ~0.35 on most days, so the day-fraction curve
  // collapses just above 0.35: the elbow lands near there.
  const ts_series s = make_series(30, [](unsigned h, int) {
    return (h >= 18 && h <= 22) ? 325.0 : 500.0;
  });
  const threshold_sweep sweep = sweep_thresholds({&s}, {kUtc});
  const double elbow = choose_threshold_elbow(sweep);
  EXPECT_GT(elbow, 0.15);
  EXPECT_LT(elbow, 0.6);
}

// Reference for sweep_thresholds: group points by local day through a
// map, collect every V(s,d) and V_H(s,t), sort them, and read the share
// above each H as 1 - cdf_at. Shares no code with the counting sweep
// beyond the series and timezone types.
threshold_sweep sorted_cdf_sweep(const std::vector<const ts_series*>& series,
                                 const std::vector<timezone_offset>& tz,
                                 std::size_t grid_points) {
  std::vector<double> day_vs;
  std::vector<double> hour_vs;
  for (std::size_t si = 0; si < series.size(); ++si) {
    std::map<std::int64_t, std::vector<double>> by_day;
    for (const ts_point p : series[si]->points()) {
      by_day[p.at.local_day_index(tz[si])].push_back(p.value);
    }
    for (const auto& [day, values] : by_day) {
      if (values.size() < 12) continue;
      const double t_max = *std::max_element(values.begin(), values.end());
      const double t_min = *std::min_element(values.begin(), values.end());
      day_vs.push_back(t_max > 0.0 ? (t_max - t_min) / t_max : 0.0);
      for (const double v : values) {
        hour_vs.push_back(t_max > 0.0 ? (t_max - v) / t_max : 0.0);
      }
    }
  }
  std::sort(day_vs.begin(), day_vs.end());
  std::sort(hour_vs.begin(), hour_vs.end());
  threshold_sweep ref;
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double h =
        static_cast<double>(i) / static_cast<double>(grid_points - 1);
    ref.thresholds.push_back(h);
    ref.day_fraction.push_back(day_vs.empty() ? 0.0
                                              : 1.0 - cdf_at(day_vs, h));
    ref.hour_fraction.push_back(hour_vs.empty() ? 0.0
                                                : 1.0 - cdf_at(hour_vs, h));
  }
  return ref;
}

// Bit-for-bit agreement, at every grid size the oracle test covers.
void expect_matches_oracle(const std::vector<const ts_series*>& series,
                           const std::vector<timezone_offset>& tz) {
  for (const std::size_t grid_points : {3u, 11u, 21u, 101u}) {
    SCOPED_TRACE(::testing::Message() << "grid_points " << grid_points);
    const threshold_sweep got = sweep_thresholds(series, tz, grid_points);
    const threshold_sweep want = sorted_cdf_sweep(series, tz, grid_points);
    ASSERT_EQ(got.thresholds.size(), grid_points);
    ASSERT_EQ(got.day_fraction.size(), grid_points);
    ASSERT_EQ(got.hour_fraction.size(), grid_points);
    for (std::size_t i = 0; i < grid_points; ++i) {
      EXPECT_EQ(got.thresholds[i], want.thresholds[i]) << "i=" << i;
      EXPECT_EQ(got.day_fraction[i], want.day_fraction[i]) << "i=" << i;
      EXPECT_EQ(got.hour_fraction[i], want.hour_fraction[i]) << "i=" << i;
    }
    EXPECT_EQ(choose_threshold_elbow(got), choose_threshold_elbow(want));
  }
}

// One UTC day of 24 points starting at `day_start`: `values` first, then
// `fill` for the remaining hours.
void append_day(ts_series& s, hour_stamp day_start,
                const std::vector<double>& values, double fill) {
  for (int h = 0; h < 24; ++h) {
    const auto i = static_cast<std::size_t>(h);
    s.append(day_start + h, i < values.size() ? values[i] : fill);
  }
}

TEST(SweepTest, MatchesSortedCdfOracle) {
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);

  // Random multi-day series in three timezones, starting mid-day and
  // with dropped hours, so partial and sub-12-sample days occur.
  rng r(17);
  const std::vector<timezone_offset> zones{timezone_offset{-7},
                                           timezone_offset{0},
                                           timezone_offset{5}};
  std::vector<ts_series> randoms;
  for (std::size_t k = 0; k < 9; ++k) {
    ts_series s("download_mbps", {{"server", std::to_string(k)}});
    const hour_stamp first = start + static_cast<std::int64_t>(k) * 5;
    for (int h = 0; h < 24 * 40; ++h) {
      const bool sparse_day = (h / 24) % 7 == 3;
      if (r.bernoulli(sparse_day ? 0.6 : 0.05)) continue;
      s.append(first + h, r.uniform(50.0, 900.0));
    }
    randoms.push_back(std::move(s));
  }
  std::vector<const ts_series*> random_series;
  std::vector<timezone_offset> random_tz;
  for (std::size_t k = 0; k < randoms.size(); ++k) {
    random_series.push_back(&randoms[k]);
    random_tz.push_back(zones[k % zones.size()]);
  }
  {
    SCOPED_TRACE("random series");
    expect_matches_oracle(random_series, random_tz);
  }

  // Days whose V or V_H sits exactly on a grid point or next to one.
  // With t_max = 3, a point one ulp either side of 1.5 gives V_H one
  // ulp either side of 0.5.
  const double below_half = std::nextafter(0.5, 0.0);
  const double above_half = std::nextafter(0.5, 1.0);
  const double to_below = std::nextafter(1.5, 2.0);
  const double to_above = std::nextafter(1.5, 1.0);
  ASSERT_EQ((3.0 - to_below) / 3.0, below_half);
  ASSERT_EQ((3.0 - to_above) / 3.0, above_half);
  ts_series exact("download_mbps", {{"server", "exact"}});
  append_day(exact, start, {300.0, 200.0}, 400.0);       // V .5, V_H .25 .5
  append_day(exact, start + 24, {300.0}, 400.0);         // V .25
  append_day(exact, start + 48, {}, 400.0);              // V 0, V_H 0
  append_day(exact, start + 72, {0.0, 200.0}, 400.0);    // V 1, V_H 1 .5
  append_day(exact, start + 96, {to_below}, 3.0);        // V just below .5
  append_day(exact, start + 120, {to_above}, 3.0);       // V just above .5
  append_day(exact, start + 144, {to_below, to_above, 1.5}, 3.0);
  append_day(exact, start + 168, {-50.0}, 100.0);        // V, V_H 1.5 > 1
  append_day(exact, start + 192, {-20.0}, -10.0);        // t_max < 0: V 0
  // With t_max = S, a point at S - k gives V_H = k / S rounded: the very
  // double grid point k of an S-step grid holds. With t_max = 1, a point
  // at 1 - x gives V_H = x exactly for any x in [0.5, 1], so the one-ulp
  // neighbours of the upper grid points occur too; these are the values
  // for which k / S rounding cannot decide the bucket alone.
  std::vector<std::pair<double, std::vector<double>>> days;  // t_max, points
  for (const double steps : {2.0, 10.0, 20.0, 100.0}) {
    std::vector<double> on_grid;
    std::vector<double> beside_grid;
    for (double k = 0.0; k <= steps; k += 1.0) {
      on_grid.push_back(steps - k);
      const double g = k / steps;
      if (g < 0.5) continue;
      beside_grid.push_back(1.0 - std::nextafter(g, 0.0));
      beside_grid.push_back(1.0 - std::nextafter(g, 2.0));
    }
    for (const auto& [t_max, points] :
         {std::pair{steps, on_grid}, std::pair{1.0, beside_grid}}) {
      for (std::size_t i = 0; i < points.size(); i += 23) {
        const std::size_t n = std::min<std::size_t>(23, points.size() - i);
        days.emplace_back(t_max, std::vector<double>(&points[i],
                                                     &points[i] + n));
      }
    }
  }
  hour_stamp day = start + 216;
  for (const auto& [t_max, points] : days) {
    append_day(exact, day, points, t_max);
    day = day + 24;
  }
  {
    SCOPED_TRACE("exact grid values");
    expect_matches_oracle({&exact}, {kUtc});
  }

  // All-zero series: t_max == 0 on every day, so every V and V_H is 0.
  const ts_series zeros = make_series(5, [](unsigned, int) { return 0.0; });
  {
    SCOPED_TRACE("all-zero series");
    expect_matches_oracle({&zeros}, {kUtc});
  }

  // Days with 11 samples are skipped and days with 12 are kept; a
  // series with only skipped days yields all-zero fractions.
  ts_series sparse("download_mbps", {{"server", "sparse"}});
  for (int h = 0; h < 11; ++h) sparse.append(start + h, 100.0 + h);
  for (int h = 0; h < 12; ++h) sparse.append(start + 24 + h, 100.0 + 7 * h);
  ts_series only_short("download_mbps", {{"server", "short"}});
  for (int h = 0; h < 11; ++h) only_short.append(start + h, 100.0 + h);
  {
    SCOPED_TRACE("short days");
    expect_matches_oracle({&sparse}, {kUtc});
    expect_matches_oracle({&only_short}, {kUtc});
    const threshold_sweep none = sweep_thresholds({&only_short}, {kUtc});
    for (std::size_t i = 0; i < none.thresholds.size(); ++i) {
      EXPECT_EQ(none.day_fraction[i], 0.0);
      EXPECT_EQ(none.hour_fraction[i], 0.0);
    }
  }
}

TEST(SummarizeTest, CongestedServerRule) {
  // Congested 1 day in 10 -> fraction 0.1, NOT > 0.1 -> not congested.
  const ts_series borderline = make_series(10, [](unsigned h, int d) {
    return (d == 0 && h == 20) ? 50.0 : 500.0;
  });
  const auto s1 = summarize_server(borderline, kUtc, 0.5);
  EXPECT_EQ(s1.days_measured, 10u);
  EXPECT_EQ(s1.congested_days, 1u);
  EXPECT_FALSE(s1.congested_server);

  // Congested 3 days in 10 -> congested server.
  const ts_series heavy = make_series(10, [](unsigned h, int d) {
    return (d < 3 && h == 20) ? 50.0 : 500.0;
  });
  const auto s2 = summarize_server(heavy, kUtc, 0.5);
  EXPECT_EQ(s2.congested_days, 3u);
  EXPECT_TRUE(s2.congested_server);
  EXPECT_EQ(s2.congested_hours, 3u);
  EXPECT_EQ(s2.hours_measured, 240u);
}

TEST(HourlyProbabilityTest, PeaksAtCongestedHour) {
  const ts_series s = make_series(20, [](unsigned h, int d) {
    // Hour 21 congested on even days.
    return (h == 21 && d % 2 == 0) ? 100.0 : 500.0;
  });
  const auto prob = hourly_congestion_probability(s, kUtc, 0.5);
  EXPECT_NEAR(prob[21], 0.5, 1e-12);
  for (unsigned h = 0; h < 24; ++h) {
    if (h != 21) EXPECT_DOUBLE_EQ(prob[h], 0.0) << h;
  }
}

TEST(HourlyProbabilityTest, LocalTimezoneApplied) {
  const timezone_offset pacific{-8};
  // Congested at local hour 20 (= 04:00 UTC next day).
  const ts_series s = make_series(10, [](unsigned local_h, int) {
    return (local_h == 20) ? 100.0 : 500.0;
  }, pacific);
  const auto prob = hourly_congestion_probability(s, pacific, 0.5);
  EXPECT_NEAR(prob[20], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(prob[4], 0.0);
}

TEST(ValidationTest, PerfectDetectorOnCleanSignal) {
  const ts_series download = make_series(15, [](unsigned h, int) {
    return (h >= 19 && h <= 21) ? 100.0 : 500.0;
  });
  ts_series truth("gt_episode", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int i = 0; i < 15 * 24; ++i) {
    const hour_stamp t = start + i;
    const unsigned h = t.utc_hour_of_day();
    truth.append(t, (h >= 19 && h <= 21) ? 1.0 : 0.0);
  }
  const auto v = validate_detector(download, truth, kUtc, 0.5);
  EXPECT_EQ(v.false_positive, 0u);
  EXPECT_EQ(v.false_negative, 0u);
  EXPECT_DOUBLE_EQ(v.precision(), 1.0);
  EXPECT_DOUBLE_EQ(v.recall(), 1.0);
}

TEST(AcfDetectorTest, SuppressesNonDiurnalNoise) {
  rng r(5);
  // Pure noise: amplitude-only detector would flag hours, ACF gate kills.
  const ts_series noisy = make_series(20, [&](unsigned, int) {
    return 400.0 + r.uniform(-200.0, 200.0);
  });
  const auto labels = acf_detector_labels(noisy, kUtc, 0.25, 0.4);
  for (const hour_label& l : labels) EXPECT_FALSE(l.congested);
}

TEST(AcfDetectorTest, KeepsDiurnalCongestion) {
  const ts_series diurnal = make_series(20, [](unsigned h, int) {
    return (h >= 19 && h <= 22) ? 150.0 : 500.0;
  });
  const auto labels = acf_detector_labels(diurnal, kUtc, 0.25, 0.4);
  std::size_t congested = 0;
  for (const hour_label& l : labels) congested += l.congested ? 1 : 0;
  EXPECT_EQ(congested, 20u * 4u);
}

TEST(CompletenessTest, CountsOnlyInWindowPoints) {
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  const hour_range window{start, start + 48};
  // A series missing 12 of its 48 hours, plus points outside the window
  // (which must not count toward completeness).
  ts_series s("download_mbps", {{"server", "1"}});
  s.append(start + (-5), 1.0);
  for (int h = 0; h < 48; ++h) {
    if (h % 4 == 3) continue;  // gap every fourth hour
    s.append(start + h, 100.0);
  }
  s.append(start + 50, 1.0);
  EXPECT_DOUBLE_EQ(series_completeness(s, window), 36.0 / 48.0);

  ts_series empty("download_mbps", {{"server", "2"}});
  EXPECT_DOUBLE_EQ(series_completeness(empty, window), 0.0);
  EXPECT_DOUBLE_EQ(series_completeness(s, {start, start}), 0.0);
}

TEST(CompletenessTest, FilterKeepsServersAboveTheFloor) {
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  const hour_range window{start, start + 24};
  ts_series full("download_mbps", {{"server", "1"}});
  ts_series half("download_mbps", {{"server", "2"}});
  ts_series empty("download_mbps", {{"server", "3"}});
  for (int h = 0; h < 24; ++h) {
    full.append(start + h, 1.0);
    if (h < 12) half.append(start + h, 1.0);
  }
  const std::vector<const ts_series*> series{&full, &half, &empty, nullptr};
  EXPECT_EQ(filter_low_completeness(series, window, 0.8),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(filter_low_completeness(series, window, 0.5),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(filter_low_completeness(series, window, 0.0),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RelativeDifferenceTest, JoinsOnCommonHours) {
  ts_series prem("download_mbps", {{"tier", "premium"}});
  ts_series stnd("download_mbps", {{"tier", "standard"}});
  const hour_stamp start = hour_stamp::from_civil({2020, 8, 1}, 0);
  for (int i = 0; i < 10; ++i) {
    prem.append(start + i, 200.0);
    stnd.append(start + i, 400.0);
  }
  stnd.append(start + 10, 100.0);  // unmatched hour ignored
  const auto deltas = relative_differences(prem, stnd);
  ASSERT_EQ(deltas.size(), 10u);
  for (const double d : deltas) EXPECT_DOUBLE_EQ(d, -0.5);
}

TEST(RelativeDifferenceTest, ZeroStandardSkipped) {
  ts_series prem("m", {}), stnd("m", {});
  prem.append(hour_stamp{0}, 100.0);
  stnd.append(hour_stamp{0}, 0.0);
  EXPECT_TRUE(relative_differences(prem, stnd).empty());
}

TEST(MonthlyPerformanceTest, AggregatesByCalendarMonth) {
  ts_series download("download_mbps", {});
  ts_series latency("latency_ms", {});
  // May: downloads 100..199; June: 500s.
  hour_stamp may = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int i = 0; i < 100; ++i) {
    download.append(may + i, 100.0 + i);
    latency.append(may + i, 50.0 - i * 0.1);
  }
  hour_stamp june = hour_stamp::from_civil({2020, 6, 1}, 0);
  for (int i = 0; i < 100; ++i) {
    download.append(june + i, 500.0);
    latency.append(june + i, 20.0);
  }
  const auto months = monthly_best_performance(download, latency);
  ASSERT_EQ(months.size(), 2u);
  EXPECT_EQ(months[0].month, 5u);
  EXPECT_NEAR(months[0].p95_download_mbps, 194.05, 0.1);
  EXPECT_NEAR(months[0].p5_latency_ms, 40.6, 0.2);
  EXPECT_EQ(months[1].month, 6u);
  EXPECT_DOUBLE_EQ(months[1].p95_download_mbps, 500.0);
  EXPECT_EQ(months[0].samples, 100u);
}

}  // namespace
}  // namespace clasp

// Appended: latency detector, weekday/weekend split, downsampling.
namespace clasp {
namespace {

TEST(LatencyDetectorTest, FlagsInflatedHours) {
  ts_series lat("latency_ms", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int d = 0; d < 10; ++d) {
    for (int h = 0; h < 24; ++h) {
      lat.append(start + d * 24 + h, (h >= 20 && h <= 21) ? 120.0 : 40.0);
    }
  }
  const auto labels = latency_inflation_labels(lat, timezone_offset{0}, 1.0);
  std::size_t congested = 0;
  for (const hour_label& l : labels) {
    if (l.congested) {
      ++congested;
      const unsigned h = l.at.utc_hour_of_day();
      EXPECT_TRUE(h >= 20 && h <= 21);
      EXPECT_NEAR(l.v_h, 2.0, 1e-9);  // (120-40)/40
    }
  }
  EXPECT_EQ(congested, 20u);
}

TEST(LatencyDetectorTest, MissesNonQueueingCongestion) {
  // Throughput collapses but latency stays flat (loss-only congestion):
  // the latency detector sees nothing — the paper's §2 point.
  ts_series lat("latency_ms", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int h = 0; h < 72; ++h) lat.append(start + h, 40.0);
  for (const hour_label& l :
       latency_inflation_labels(lat, timezone_offset{0}, 0.5)) {
    EXPECT_FALSE(l.congested);
  }
}

TEST(WeekendTest, DayTypeArithmetic) {
  // 2020-01-01 (day 0) = Wednesday; 2020-01-04 (day 3) = Saturday.
  EXPECT_FALSE(is_weekend_day(0));
  EXPECT_FALSE(is_weekend_day(2));  // Friday
  EXPECT_TRUE(is_weekend_day(3));   // Saturday
  EXPECT_TRUE(is_weekend_day(4));   // Sunday
  EXPECT_FALSE(is_weekend_day(5));  // Monday
  EXPECT_TRUE(is_weekend_day(3 + 7 * 10));
}

TEST(WeekendTest, SplitCountsByDayType) {
  ts_series s("download_mbps", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  // Congest hour 20 on weekends only. 2020-05-02 is a Saturday.
  for (int d = 0; d < 28; ++d) {
    for (int h = 0; h < 24; ++h) {
      const std::int64_t day = (start + d * 24).utc_day_index();
      const bool weekend = is_weekend_day(day);
      s.append(start + d * 24 + h,
               (weekend && h == 20) ? 100.0 : 500.0);
    }
  }
  const auto split = split_by_day_type(s, timezone_offset{0}, 0.5);
  EXPECT_EQ(split.weekday_hours + split.weekend_hours, 28u * 24u);
  EXPECT_EQ(split.weekday_congested, 0u);
  EXPECT_EQ(split.weekend_congested, 8u);  // 8 weekend days in 28
  EXPECT_GT(split.weekend_fraction(), split.weekday_fraction());
}

TEST(DownsampleTest, MeanMinMax) {
  ts_series s("m", {{"k", "v"}});
  for (int i = 0; i < 12; ++i) s.append(hour_stamp{i}, i);
  const ts_series mean6 = downsample(s, 6, downsample_op::mean);
  ASSERT_EQ(mean6.size(), 2u);
  EXPECT_DOUBLE_EQ(mean6.points()[0].value, 2.5);   // mean(0..5)
  EXPECT_DOUBLE_EQ(mean6.points()[1].value, 8.5);   // mean(6..11)
  EXPECT_EQ(mean6.points()[0].at, hour_stamp{0});
  EXPECT_EQ(mean6.points()[1].at, hour_stamp{6});
  EXPECT_EQ(mean6.tags().at("k"), "v");

  const ts_series max6 = downsample(s, 6, downsample_op::max);
  EXPECT_DOUBLE_EQ(max6.points()[0].value, 5.0);
  const ts_series min6 = downsample(s, 6, downsample_op::min);
  EXPECT_DOUBLE_EQ(min6.points()[1].value, 6.0);
}

TEST(DownsampleTest, GapsStartNewBuckets) {
  ts_series s("m", {});
  s.append(hour_stamp{0}, 1.0);
  s.append(hour_stamp{1}, 3.0);
  s.append(hour_stamp{100}, 7.0);
  const ts_series out = downsample(s, 24, downsample_op::mean);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.points()[0].value, 2.0);
  EXPECT_EQ(out.points()[1].at, hour_stamp{96});
}

TEST(DownsampleTest, EmptyAndErrors) {
  ts_series s("m", {});
  EXPECT_EQ(downsample(s, 6, downsample_op::mean).size(), 0u);
  s.append(hour_stamp{0}, 1.0);
  EXPECT_THROW(downsample(s, 0, downsample_op::mean),
               invalid_argument_error);
}

}  // namespace
}  // namespace clasp
