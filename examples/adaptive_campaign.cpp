// Adaptive operations: everything §5 proposes, running together.
//
// A two-week campaign that (1) measures with full tests, (2) runs cheap
// in-band probes between tests, (3) re-pilots mid-campaign after the
// speed-test fleet changes, and (4) finishes with the operator report.
//
//   $ ./build/examples/adaptive_campaign
#include <cstdio>

#include "clasp/inband.hpp"
#include "clasp/platform.hpp"
#include "clasp/repilot.hpp"
#include "clasp/report.hpp"

int main() {
  using namespace clasp;

  clasp_platform platform;
  const std::string region = "us-central1";

  // Week 1: the standard campaign.
  const hour_range week1{hour_stamp::from_civil({2020, 5, 1}, 0),
                         hour_stamp::from_civil({2020, 5, 8}, 0)};
  campaign_runner& campaign =
      platform.start_topology_campaign(region, week1);
  campaign.run();
  std::printf("week 1: %zu tests on %zu servers\n", campaign.tests_run(),
              campaign.session_count());

  // In-band spot checks: probe the three most congested servers' paths
  // at a fraction of a test's cost.
  const auto data = platform.download_series("topology", region);
  rng r(7);
  const gcp_cloud::vm_id probe_vm =
      platform.cloud().create_vm(region, service_tier::premium);
  const endpoint vm_ep = platform.cloud().vm_endpoint(probe_vm);
  inband_config probe_cfg;
  probe_cfg.train_length = 256;
  double probe_mb = 0.0;
  std::printf("\nin-band spot checks (%.1f MB per probe):\n",
              inband_probe_volume(probe_cfg).value);
  for (std::size_t i = 0; i < std::min<std::size_t>(data.series.size(), 3);
       ++i) {
    const std::size_t sid = data.server_ids[i];
    const endpoint server_ep = platform.planner().endpoint_of_host(
        platform.registry().server(sid).host);
    const route_path path =
        platform.planner().to_cloud(server_ep, vm_ep, service_tier::premium);
    const inband_result probe = run_inband_probe(
        platform.view(), path, week1.end_at, probe_cfg, r);
    probe_mb += probe.volume.value;
    std::printf("  %-44s avail ~%.0f Mbps, rtt %.1f ms, loss %.3f\n",
                platform.registry().server(sid).name.c_str(),
                probe.available_estimate.value, probe.rtt.value, probe.loss);
  }
  std::printf("  total probe traffic: %.2f MB (one full test moves >100)\n",
              probe_mb);

  // Fleet churn: a new server appears; the re-pilot plans the rollover.
  server_registry& registry =
      const_cast<server_registry&>(platform.registry());
  const as_index sonic = *platform.net().topo->find_as(asn{46375});
  const std::size_t new_server = registry.add_server(
      platform.net(), sonic, platform.net().topo->as_at(sonic).presence.front(),
      speedtest_platform::ookla, mbps::from_gbps(1.0), r);
  std::printf("\nnew server deployed: %s\n",
              registry.server(new_server).name.c_str());

  topology_selector selector(&platform.planner(), &platform.view(),
                             &platform.registry());
  topology_selection_config sel_cfg;
  sel_cfg.deployment_budget =
      platform.config().topology_budgets.at(region);  // same budget
  const repilot_result refresh = refresh_selection(
      selector, vm_ep, sel_cfg, platform.select_topology(region),
      week1.end_at, r);
  std::printf("re-pilot: +%zu/-%zu links, deploy %zu / retire %zu servers\n",
              refresh.diff.links_gained.size(),
              refresh.diff.links_lost.size(),
              refresh.diff.servers_to_deploy.size(),
              refresh.diff.servers_to_retire.size());

  // The operator report for week 1.
  std::printf("\n%s", render_campaign_report(platform, region).c_str());
  return 0;
}
