// Fig. 8 / Appendix B: congested vs non-congested servers per region,
// broken down by the business type of the hosting network (ipinfo-style
// classification: ISP / Hosting / Business / Education / Unknown).
//
// Paper: most test servers sit in ISP networks; 30-77% of ISP servers
// selected with the topology-based method showed signs of congestion
// (>10% of days with at least one event); the two tiers look similar for
// differential servers.
#include "bench_support.hpp"
#include "util/strings.hpp"

namespace {

using namespace clasp;

struct category_counts {
  std::size_t total[5] = {0, 0, 0, 0, 0};
  std::size_t congested[5] = {0, 0, 0, 0, 0};
};

category_counts tally(const clasp_platform& platform,
                      const std::string& campaign, const std::string& region,
                      const std::string& tier) {
  category_counts counts;
  const auto data =
      platform.download_series(campaign, region, "download_mbps", tier);
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const std::size_t sid = data.server_ids[i];
    const speed_server& server = platform.registry().server(sid);
    const business_type type = platform.net().ipinfo.type_of(server.network);
    const auto summary = summarize_server(*data.series[i], data.tz[i], 0.5);
    counts.total[static_cast<int>(type)] += 1;
    if (summary.congested_server) {
      counts.congested[static_cast<int>(type)] += 1;
    }
  }
  return counts;
}

void print_counts(const std::string& label, const category_counts& counts) {
  const business_type types[5] = {business_type::isp, business_type::hosting,
                                  business_type::business,
                                  business_type::education,
                                  business_type::unknown};
  std::printf("%-28s", label.c_str());
  for (const business_type t : types) {
    const int i = static_cast<int>(t);
    std::printf("  %s %zu/%zu", to_string(t).c_str(), counts.congested[i],
                counts.total[i]);
  }
  if (counts.total[0] > 0) {
    std::printf("  (ISP congested: %.0f%%)",
                100.0 * counts.congested[0] / counts.total[0]);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace clasp;
  using namespace clasp::bench;

  clasp_platform platform = make_platform();
  run_topology_campaigns(platform, table1_regions());
  run_differential_campaign(platform, "europe-west1");

  print_header("Fig. 8 — Congested/non-congested servers by business type",
               "most servers in ISP networks; 30-77%% of ISP servers "
               "congested (topology-based); tiers similar (differential)");

  std::printf("\ntopology-based (counts are congested/total):\n");
  for (const std::string& region : table1_regions()) {
    print_counts(region, tally(platform, "topology", region, ""));
  }

  std::printf("\ndifferential-based, europe-west1:\n");
  print_counts("europe-west1 (premium)",
               tally(platform, "diff-premium", "europe-west1", "premium"));
  print_counts("europe-west1 (standard)",
               tally(platform, "diff-standard", "europe-west1", "standard"));
  return 0;
}
