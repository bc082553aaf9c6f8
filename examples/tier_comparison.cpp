// Tier comparison: the paper's differential experiment for europe-west1 —
// latency pre-test from eyeball vantage points, paired premium/standard
// VMs, one month of hourly tests, then the Δ analysis of §4.1.
//
//   $ ./build/examples/tier_comparison
#include <cmath>
#include <cstdio>

#include "clasp/platform.hpp"
#include "util/stats.hpp"

int main() {
  using namespace clasp;

  clasp_platform platform;

  // 1. Differential selection: Speedchecker-style latency pre-test.
  const differential_selection_result& selection =
      platform.select_differential("europe-west1");
  std::printf("pre-test: %zu tuples measured, %zu candidates, %zu servers\n",
              selection.tuples_measured, selection.candidates.size(),
              selection.selected.size());
  for (const auto& chosen : selection.selected) {
    std::printf("  %-44s [%s]\n",
                platform.registry().server(chosen.server_id).name.c_str(),
                to_string(chosen.cls));
  }

  // 2. One month with a premium VM and a standard VM measuring the same
  //    servers in the same hours.
  const hour_range month{hour_stamp::from_civil({2020, 8, 1}, 0),
                         hour_stamp::from_civil({2020, 9, 1}, 0)};
  auto [premium, standard] =
      platform.start_differential_campaign("europe-west1", month);
  premium->run();
  standard->run();

  // 3. Relative differences Δ = (premium - standard) / standard.
  const auto prem = platform.download_series("diff-premium", "europe-west1");
  std::printf("\n%-44s %10s %10s %10s\n", "server", "median dl Δ",
              "median ul Δ", "median lat Δ");
  std::size_t std_faster = 0;
  for (std::size_t i = 0; i < prem.series.size(); ++i) {
    const ts_series* ps = prem.series[i];
    tag_set std_tags = ps->tags();
    std_tags["campaign"] = "diff-standard";
    std_tags["tier"] = "standard";
    const ts_series* ss = platform.store().find("download_mbps", std_tags);
    if (ss == nullptr) continue;
    const auto dl = relative_differences(*ps, *ss);

    tag_set up_tags = ps->tags();
    const ts_series* pu = platform.store().find("upload_mbps", up_tags);
    const ts_series* su = platform.store().find("upload_mbps", std_tags);
    const ts_series* pl = platform.store().find("latency_ms", up_tags);
    const ts_series* sl = platform.store().find("latency_ms", std_tags);
    const auto ul = (pu && su) ? relative_differences(*pu, *su)
                               : std::vector<double>{};
    const auto lat = (pl && sl) ? relative_differences(*pl, *sl)
                                : std::vector<double>{};
    std::printf("%-44s %9.1f%% %9.1f%% %9.1f%%\n",
                platform.registry().server(prem.server_ids[i]).name.c_str(),
                dl.empty() ? 0.0 : 100.0 * median(dl),
                ul.empty() ? 0.0 : 100.0 * median(ul),
                lat.empty() ? 0.0 : 100.0 * median(lat));
    if (!dl.empty() && median(dl) < 0.0) ++std_faster;
  }
  std::printf("\nstandard tier faster (median) for %zu of %zu servers "
              "(the paper's headline finding)\n",
              std_faster, prem.series.size());

  // 4. Cost comparison: the standard tier is cheaper per GB too.
  std::printf("egress price: premium $%.3f/GB, standard $%.3f/GB\n",
              egress_usd_per_gb(service_tier::premium),
              egress_usd_per_gb(service_tier::standard));
  return 0;
}
