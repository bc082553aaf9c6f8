// Congestion study: one month of measurements from us-east1, then the
// full §3.3 analysis — threshold sweep, elbow choice, per-ISP congestion
// summaries and the diurnal profile of the worst network.
//
//   $ ./build/examples/congestion_study
#include <algorithm>
#include <cstdio>
#include <vector>

#include "clasp/platform.hpp"

int main() {
  using namespace clasp;

  clasp_platform platform;
  const hour_range month{hour_stamp::from_civil({2020, 5, 1}, 0),
                         hour_stamp::from_civil({2020, 6, 1}, 0)};
  platform.start_topology_campaign("us-east1", month).run();

  const auto data = platform.download_series("topology", "us-east1");

  // 1. Choose the detection threshold with the elbow method, as §3.3.
  const threshold_sweep sweep = sweep_thresholds(data.series, data.tz);
  const double threshold = choose_threshold_elbow(sweep);
  std::printf("elbow threshold H = %.2f (paper uses 0.5)\n", threshold);

  // 2. Rank networks by congestion.
  struct ranked {
    std::string name;
    server_congestion_summary summary;
  };
  std::vector<ranked> networks;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const std::size_t sid = data.server_ids[i];
    networks.push_back(
        {platform.registry().server(sid).name,
         summarize_server(*data.series[i], data.tz[i], threshold)});
  }
  std::sort(networks.begin(), networks.end(), [](const auto& a, const auto& b) {
    return a.summary.congested_hours > b.summary.congested_hours;
  });

  std::printf("\nmost congested networks (of %zu measured):\n",
              networks.size());
  std::printf("%-44s %10s %14s\n", "network", "cong.days", "cong.hours");
  for (std::size_t i = 0; i < std::min<std::size_t>(networks.size(), 8); ++i) {
    std::printf("%-44s %6zu/%zu %10zu/%zu\n", networks[i].name.c_str(),
                networks[i].summary.congested_days,
                networks[i].summary.days_measured,
                networks[i].summary.congested_hours,
                networks[i].summary.hours_measured);
  }

  // 3. Diurnal congestion profile of the worst network.
  const ts_series* worst = nullptr;
  timezone_offset worst_tz{};
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const std::size_t sid = data.server_ids[i];
    if (platform.registry().server(sid).name == networks.front().name) {
      worst = data.series[i];
      worst_tz = data.tz[i];
    }
  }
  if (worst != nullptr) {
    std::printf("\nhourly congestion probability for %s (local time):\n",
                networks.front().name.c_str());
    const auto prob = hourly_congestion_probability(*worst, worst_tz,
                                                    threshold);
    for (unsigned h = 0; h < 24; ++h) {
      std::printf("%02u:00 %5.2f  %s\n", h, prob[h],
                  std::string(static_cast<std::size_t>(prob[h] * 50), '#')
                      .c_str());
    }
  }

  // 4. Validate against the simulator's planted ground truth — something
  //    the real platform could never do.
  detector_validation total;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const ts_series* gt =
        platform.store().find("gt_episode", data.series[i]->tags());
    if (gt == nullptr) continue;
    const auto v = validate_detector(*data.series[i], *gt, data.tz[i],
                                     threshold);
    total.true_positive += v.true_positive;
    total.false_positive += v.false_positive;
    total.false_negative += v.false_negative;
    total.true_negative += v.true_negative;
  }
  std::printf("\ndetector vs planted episodes: precision %.2f, recall %.2f\n",
              total.precision(), total.recall());

  // 5. Interconnect-level view: each measured server covers one
  //    interdomain link, so congestion aggregates to neighbor networks.
  auto links = platform.interconnect_congestion("us-east1", threshold);
  std::sort(links.begin(), links.end(),
            [](const interconnect_report& a, const interconnect_report& b) {
              return a.summary.congested_hours > b.summary.congested_hours;
            });
  std::printf("\nmost congested interconnects:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(links.size(), 6); ++i) {
    std::printf("  %-16s AS%-8u cong.hours %zu/%zu\n",
                links[i].far_side.to_string().c_str(),
                links[i].neighbor.value, links[i].summary.congested_hours,
                links[i].summary.hours_measured);
  }
  return 0;
}
