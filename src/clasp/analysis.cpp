#include "clasp/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <unordered_map>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace clasp {

namespace {

// Visit a series' points grouped by local day. The store enforces
// time-ordered appends, so each day is one contiguous stretch of the
// series, cut off at the next local midnight: no map and no per-point
// day computation, same visit order as sorting by day. `fn` receives
// (local_day, points), where points.values() is the day's contiguous
// value column and points.front().at its first hour.
template <typename Fn>
void for_each_local_day(const ts_series& series, timezone_offset tz,
                        Fn&& fn) {
  ts_point_view rest = series.points();
  while (!rest.empty()) {
    const std::int64_t day = rest.front().at.local_day_index(tz);
    const hour_stamp next_midnight{(day + 1) * 24 - tz.hours_east_of_utc};
    const auto [points, after] = rest.split(next_midnight);
    fn(day, points);
    rest = after;
  }
}

}  // namespace

std::vector<day_variability> daily_variability(const ts_series& series,
                                               timezone_offset tz,
                                               std::size_t min_samples) {
  std::vector<day_variability> out;
  for_each_local_day(series, tz, [&](std::int64_t day,
                                     const ts_point_view& points) {
    const std::span<const double> values = points.values();
    if (values.size() < min_samples) return;
    day_variability dv;
    dv.local_day = day;
    dv.samples = values.size();
    dv.t_max = values.front();
    dv.t_min = values.front();
    for (const double v : values) {
      dv.t_max = std::max(dv.t_max, v);
      dv.t_min = std::min(dv.t_min, v);
    }
    dv.v = dv.t_max > 0.0 ? (dv.t_max - dv.t_min) / dv.t_max : 0.0;
    out.push_back(dv);
  });
  return out;
}

std::vector<hour_label> intraday_labels(const ts_series& series,
                                        timezone_offset tz, double threshold,
                                        std::size_t min_samples) {
  std::vector<hour_label> out;
  out.reserve(series.size());
  for_each_local_day(series, tz, [&](std::int64_t,
                                     const ts_point_view& points) {
    const std::span<const double> values = points.values();
    if (values.size() < min_samples) return;
    double t_max = values.front();
    for (const double v : values) t_max = std::max(t_max, v);
    for (const ts_point p : points) {
      hour_label label;
      label.at = p.at;
      label.v_h = t_max > 0.0 ? (t_max - p.value) / t_max : 0.0;
      label.congested = label.v_h > threshold;
      out.push_back(label);
    }
  });
  return out;
}

threshold_sweep sweep_thresholds(const std::vector<const ts_series*>& series,
                                 const std::vector<timezone_offset>& tz_of,
                                 std::size_t grid_points) {
  if (series.size() != tz_of.size()) {
    throw invalid_argument_error("sweep_thresholds: size mismatch");
  }
  if (grid_points < 3) {
    throw invalid_argument_error("sweep_thresholds: grid too small");
  }
  threshold_sweep sweep;
  sweep.thresholds.resize(grid_points);
  for (std::size_t i = 0; i < grid_points; ++i) {
    sweep.thresholds[i] =
        static_cast<double>(i) / static_cast<double>(grid_points - 1);
  }

  // Count every V(s,d) and V_H(s,t) into the first grid point whose
  // threshold is >= the value: the lower_bound index into `thresholds`,
  // with grid_points for values above 1. #{V <= H_i} is then the sum of
  // buckets 0..i, so each fraction below is the same double that
  // 1 - cdf_at(sorted values, H_i) gives, without collecting or sorting
  // the values. One pass over each series yields both: a day's V is
  // derived from the same t_max/t_min scan its hours' V_H values need.
  const std::vector<double>& grid = sweep.thresholds;
  const double steps = static_cast<double>(grid_points - 1);
  const auto bucket_of = [&](double v) -> std::size_t {
    if (!(v <= 1.0)) return grid_points;  // above every H (NaN too)
    if (v <= 0.0) return 0;
    // v * steps is rounded, and grid[i] is i / steps rounded, so the
    // ceiling can miss by one either way; settle it against the grid.
    // v <= 1 keeps the ceiling <= steps, and grid.back() == 1.0 >= v.
    auto i = static_cast<std::size_t>(std::ceil(v * steps));
    while (i > 0 && grid[i - 1] >= v) --i;
    while (grid[i] < v) ++i;
    return i;
  };
  constexpr std::size_t kMinSamples = 12;  // the label functions' default
  std::vector<std::size_t> day_buckets(grid_points + 1, 0);
  std::vector<std::size_t> hour_buckets(grid_points + 1, 0);
  std::size_t days = 0;
  std::size_t hours = 0;
  for (std::size_t si = 0; si < series.size(); ++si) {
    for_each_local_day(
        *series[si], tz_of[si],
        [&](std::int64_t, const ts_point_view& points) {
          const std::span<const double> values = points.values();
          if (values.size() < kMinSamples) return;
          double t_max = values.front();
          double t_min = values.front();
          for (const double v : values) {
            t_max = std::max(t_max, v);
            t_min = std::min(t_min, v);
          }
          ++day_buckets[bucket_of(t_max > 0.0 ? (t_max - t_min) / t_max
                                              : 0.0)];
          for (const double v : values) {
            ++hour_buckets[bucket_of(t_max > 0.0 ? (t_max - v) / t_max
                                                 : 0.0)];
          }
          ++days;
          hours += values.size();
        });
  }

  sweep.day_fraction.resize(grid_points);
  sweep.hour_fraction.resize(grid_points);
  std::size_t days_at_or_below = 0;
  std::size_t hours_at_or_below = 0;
  for (std::size_t i = 0; i < grid_points; ++i) {
    days_at_or_below += day_buckets[i];
    hours_at_or_below += hour_buckets[i];
    // Fraction strictly greater than H_i.
    sweep.day_fraction[i] =
        days == 0 ? 0.0
                  : 1.0 - static_cast<double>(days_at_or_below) /
                              static_cast<double>(days);
    sweep.hour_fraction[i] =
        hours == 0 ? 0.0
                   : 1.0 - static_cast<double>(hours_at_or_below) /
                               static_cast<double>(hours);
  }
  return sweep;
}

double choose_threshold_elbow(const threshold_sweep& sweep) {
  const std::size_t idx =
      elbow_index(sweep.thresholds, sweep.day_fraction);
  return sweep.thresholds[idx];
}

server_congestion_summary summarize_server(
    const ts_series& series, timezone_offset tz, double threshold,
    double congested_server_day_fraction) {
  server_congestion_summary summary;
  std::unordered_map<std::int64_t, bool> day_congested;
  for (const hour_label& hl : intraday_labels(series, tz, threshold)) {
    ++summary.hours_measured;
    const std::int64_t day = hl.at.local_day_index(tz);
    day_congested.try_emplace(day, false);
    if (hl.congested) {
      ++summary.congested_hours;
      day_congested[day] = true;
    }
  }
  summary.days_measured = day_congested.size();
  for (const auto& [day, congested] : day_congested) {
    if (congested) ++summary.congested_days;
  }
  summary.congested_server =
      summary.congested_day_fraction() > congested_server_day_fraction;
  return summary;
}

std::array<double, 24> hourly_congestion_probability(const ts_series& series,
                                                     timezone_offset tz,
                                                     double threshold) {
  std::array<double, 24> events{};
  std::array<double, 24> measurements{};
  for (const hour_label& hl : intraday_labels(series, tz, threshold)) {
    const unsigned h = hl.at.local_hour_of_day(tz);
    measurements[h] += 1.0;
    if (hl.congested) events[h] += 1.0;
  }
  std::array<double, 24> prob{};
  for (unsigned h = 0; h < 24; ++h) {
    prob[h] = measurements[h] > 0.0 ? events[h] / measurements[h] : 0.0;
  }
  return prob;
}

std::vector<hour_label> latency_inflation_labels(const ts_series& latency,
                                                 timezone_offset tz,
                                                 double threshold,
                                                 std::size_t min_samples) {
  std::vector<hour_label> out;
  out.reserve(latency.size());
  for_each_local_day(latency, tz, [&](std::int64_t,
                                      const ts_point_view& points) {
    const std::span<const double> values = points.values();
    if (values.size() < min_samples) return;
    double l_min = values.front();
    for (const double v : values) l_min = std::min(l_min, v);
    if (l_min <= 0.0) return;
    for (const ts_point p : points) {
      hour_label label;
      label.at = p.at;
      label.v_h = (p.value - l_min) / l_min;  // latency inflation ratio
      label.congested = label.v_h > threshold;
      out.push_back(label);
    }
  });
  return out;
}

bool is_weekend_day(std::int64_t local_day_index) {
  // 2020-01-01 (day 0) was a Wednesday; Monday == 0 in this arithmetic.
  const std::int64_t dow = ((local_day_index % 7) + 7 + 2) % 7;
  return dow >= 5;
}

weekday_weekend_split split_by_day_type(const ts_series& series,
                                        timezone_offset tz,
                                        double threshold) {
  weekday_weekend_split out;
  for (const hour_label& l : intraday_labels(series, tz, threshold)) {
    const bool weekend = is_weekend_day(l.at.local_day_index(tz));
    if (weekend) {
      ++out.weekend_hours;
      out.weekend_congested += l.congested ? 1 : 0;
    } else {
      ++out.weekday_hours;
      out.weekday_congested += l.congested ? 1 : 0;
    }
  }
  return out;
}

ts_series downsample(const ts_series& series, std::int64_t bucket_hours,
                     downsample_op op) {
  if (bucket_hours <= 0) {
    throw invalid_argument_error("downsample: bucket_hours <= 0");
  }
  ts_series out(series.metric(), series.tags());
  std::int64_t bucket_start = 0;
  double acc = 0.0;
  std::size_t count = 0;
  const auto flush = [&]() {
    if (count == 0) return;
    const double value =
        op == downsample_op::mean ? acc / static_cast<double>(count) : acc;
    out.append(hour_stamp{bucket_start}, value);
    count = 0;
  };
  for (const ts_point p : series.points()) {
    const std::int64_t start =
        p.at.hours_since_epoch() / bucket_hours * bucket_hours;
    if (count > 0 && start != bucket_start) flush();
    if (count == 0) {
      bucket_start = start;
      acc = p.value;
      count = 1;
      continue;
    }
    switch (op) {
      case downsample_op::mean: acc += p.value; break;
      case downsample_op::min: acc = std::min(acc, p.value); break;
      case downsample_op::max: acc = std::max(acc, p.value); break;
    }
    ++count;
  }
  flush();
  return out;
}

detector_validation validate_detector(const ts_series& download,
                                      const ts_series& ground_truth,
                                      timezone_offset tz, double threshold) {
  // Index ground truth by hour.
  std::unordered_map<std::int64_t, bool> gt;
  for (const ts_point p : ground_truth.points()) {
    gt[p.at.hours_since_epoch()] = p.value > 0.5;
  }
  detector_validation v;
  for (const hour_label& hl : intraday_labels(download, tz, threshold)) {
    const auto it = gt.find(hl.at.hours_since_epoch());
    if (it == gt.end()) continue;
    const bool truth = it->second;
    if (hl.congested && truth) ++v.true_positive;
    else if (hl.congested && !truth) ++v.false_positive;
    else if (!hl.congested && truth) ++v.false_negative;
    else ++v.true_negative;
  }
  return v;
}

std::vector<hour_label> acf_detector_labels(const ts_series& series,
                                            timezone_offset tz,
                                            double acf_threshold,
                                            double amplitude_threshold) {
  // Gate on diurnal structure: strong 24h autocorrelation of the
  // throughput signal indicates a repeating daily pattern.
  const double acf24 = autocorrelation(series.values(), 24);

  std::vector<hour_label> labels =
      intraday_labels(series, tz, amplitude_threshold);
  if (acf24 < acf_threshold) {
    // No diurnal structure: suppress all detections.
    for (hour_label& l : labels) l.congested = false;
  }
  return labels;
}

const char* to_string(congestion_direction d) {
  switch (d) {
    case congestion_direction::ingress: return "ingress";
    case congestion_direction::egress: return "egress";
    case congestion_direction::both: return "both";
    case congestion_direction::unknown: return "unknown";
  }
  return "?";
}

congestion_direction asymmetry_summary::dominant() const {
  const std::size_t conclusive = ingress_hours + egress_hours + both_hours;
  if (conclusive == 0) return congestion_direction::unknown;
  if (ingress_hours * 2 >= conclusive &&
      ingress_hours >= egress_hours && ingress_hours >= both_hours) {
    return congestion_direction::ingress;
  }
  if (egress_hours * 2 >= conclusive && egress_hours >= both_hours) {
    return congestion_direction::egress;
  }
  if (both_hours * 2 >= conclusive) return congestion_direction::both;
  return congestion_direction::unknown;
}

asymmetry_summary classify_asymmetry(const ts_series& download,
                                     const ts_series& download_loss,
                                     const ts_series& upload_loss,
                                     timezone_offset tz, double threshold,
                                     double high_loss, double low_loss) {
  if (high_loss <= low_loss) {
    throw invalid_argument_error("classify_asymmetry: high_loss <= low_loss");
  }
  std::unordered_map<std::int64_t, double> dl_loss, ul_loss;
  for (const ts_point p : download_loss.points()) {
    dl_loss[p.at.hours_since_epoch()] = p.value;
  }
  for (const ts_point p : upload_loss.points()) {
    ul_loss[p.at.hours_since_epoch()] = p.value;
  }

  asymmetry_summary out;
  for (const hour_label& l : intraday_labels(download, tz, threshold)) {
    if (!l.congested) continue;
    ++out.congested_hours;
    const auto dl = dl_loss.find(l.at.hours_since_epoch());
    const auto ul = ul_loss.find(l.at.hours_since_epoch());
    if (dl == dl_loss.end() || ul == ul_loss.end()) {
      ++out.unknown_hours;
      continue;
    }
    const bool dl_high = dl->second >= high_loss;
    const bool ul_high = ul->second >= high_loss;
    const bool ul_low = ul->second <= low_loss;
    const bool dl_low = dl->second <= low_loss;
    if (dl_high && ul_low) ++out.ingress_hours;
    else if (ul_high && dl_low) ++out.egress_hours;
    else if (dl_high && ul_high) ++out.both_hours;
    else ++out.unknown_hours;
  }
  return out;
}

double series_completeness(const ts_series& series, hour_range window) {
  if (!(window.begin_at < window.end_at)) return 0.0;
  const std::size_t in_window =
      series.range(window.begin_at, window.end_at).size();
  return static_cast<double>(in_window) /
         static_cast<double>(window.count());
}

std::vector<std::size_t> filter_low_completeness(
    const std::vector<const ts_series*>& series, hour_range window,
    double min_completeness) {
  std::vector<std::size_t> kept;
  kept.reserve(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] != nullptr &&
        series_completeness(*series[i], window) >= min_completeness) {
      kept.push_back(i);
    }
  }
  return kept;
}

std::vector<double> relative_differences(const ts_series& premium,
                                         const ts_series& standard) {
  std::unordered_map<std::int64_t, double> std_by_hour;
  for (const ts_point p : standard.points()) {
    std_by_hour[p.at.hours_since_epoch()] = p.value;
  }
  std::vector<double> out;
  for (const ts_point p : premium.points()) {
    const auto it = std_by_hour.find(p.at.hours_since_epoch());
    if (it == std_by_hour.end() || it->second == 0.0) continue;
    out.push_back((p.value - it->second) / it->second);
  }
  return out;
}

std::vector<monthly_performance> monthly_best_performance(
    const ts_series& download, const ts_series& latency) {
  // Bucket both series by UTC calendar month.
  struct bucket {
    std::vector<double> downloads;
    std::vector<double> latencies;
  };
  std::map<std::pair<int, unsigned>, bucket> months;
  for (const ts_point p : download.points()) {
    const civil_date d = p.at.utc_date();
    months[{d.year, d.month}].downloads.push_back(p.value);
  }
  for (const ts_point p : latency.points()) {
    const civil_date d = p.at.utc_date();
    months[{d.year, d.month}].latencies.push_back(p.value);
  }
  std::vector<monthly_performance> out;
  for (const auto& [ym, b] : months) {
    if (b.downloads.empty() || b.latencies.empty()) continue;
    monthly_performance m;
    m.year = ym.first;
    m.month = ym.second;
    m.p95_download_mbps = percentile(b.downloads, 95.0);
    m.p5_latency_ms = percentile(b.latencies, 5.0);
    m.samples = b.downloads.size();
    out.push_back(m);
  }
  return out;
}

}  // namespace clasp
