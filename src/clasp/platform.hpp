// CLASP platform facade — the top-level public API.
//
// Wires the whole stack together in the order the paper describes:
// generate the Internet substrate, deploy the speed-test fleets, stand up
// the cloud control plane, run the two server-selection methods, then run
// longitudinal measurement campaigns whose results land in the embedded
// time-series store for analysis.
//
// Typical use (see examples/quickstart.cpp):
//
//   clasp_platform platform;                        // default config
//   platform.select_topology("us-west1");           // pilot + selection
//   auto& c = platform.start_topology_campaign("us-west1");
//   c.run();                                        // five months, hourly
//   // analyze platform.store() with clasp/analysis.hpp
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clasp/analysis.hpp"
#include "clasp/campaign.hpp"
#include "clasp/differential.hpp"
#include "clasp/selection.hpp"
#include "cloud/gcp.hpp"
#include "netsim/generator.hpp"
#include "netsim/network.hpp"
#include "netsim/routing.hpp"
#include "speedtest/registry.hpp"
#include "tsdb/tsdb.hpp"

namespace clasp {

// Campaign service daemon settings (src/svc/, `clasp_cli serve`). Lives
// on platform_config so the INI loader and CLI overlay reach it through
// the one config object the whole stack shares; a batch run ignores it.
struct service_settings {
  // Control socket the daemon listens on and the CLI verbs dial.
  std::string socket{"clasp-svc.sock"};
  // Daemon state root: <state_dir>/registry.bin (durable queue) and
  // <state_dir>/ckpt/<tenant>-<id>/ (per-campaign checkpoints).
  std::string state_dir{"clasp-svc"};
  // Where finished campaigns' CSVs land (<tenant>-<id>.csv); empty
  // keeps results only in each session's store (tests read them there).
  std::string results_dir;
  // Scheduler time slice in simulated hours; must be >= 1.
  unsigned quantum_hours{6};
  // Admission: shared worker-unit budget and campaign-count quotas.
  unsigned worker_budget{8};
  std::size_t max_admitted{4};
  std::size_t tenant_max_admitted{2};
  std::size_t tenant_max_active{16};
  // Sessions kept in memory; beyond this the least-recently-run durable
  // session is checkpointed and evicted.
  std::size_t max_resident{4};
  // Heartbeat cadence in scheduler quanta (obs line + gauges); 0 = off.
  unsigned heartbeat_every_quanta{0};
};

struct platform_config {
  internet_config internet{};
  server_deploy_config servers{};
  // Deployment budget (max measured servers) per region for the
  // topology-based campaign. Regions absent from the map get no cap.
  // Defaults reproduce the paper's budget-limited fleet (Table 1).
  std::map<std::string, std::size_t> topology_budgets{
      {"us-west1", 106}, {"us-west2", 25},  {"us-west4", 48},
      {"us-east1", 184}, {"us-east4", 40},  {"us-central1", 56},
  };
  differential_config differential{};
  // Replay concurrency handed to every campaign this platform deploys:
  // 1 = serial, 0 = hardware_concurrency. Any value yields bit-identical
  // campaign results (see DESIGN.md, "Concurrency model & determinism").
  unsigned campaign_workers{1};
  // Synthetic fleet multiplier (internet_config::fleet_scale, mirrored
  // here so the config loader and CLI have one campaign-facing knob):
  // every campaign measures fleet_scale x the selected servers, the extra
  // replicas sharing their base servers' host attachments. 1 is the
  // paper-scale fleet; the platform constructor rejects 0 with guidance.
  // Selection and the generated world are unchanged at any scale.
  std::size_t fleet_scale{1};
  // Fault injection for every campaign this platform deploys
  // (campaign_config::faults). When enabled, churned servers are also
  // retired from the platform registry so later crawls and selections no
  // longer see them.
  fault_config campaign_faults{};
  // Durability for every campaign this platform deploys. When non-empty,
  // each campaign checkpoints under <dir>[/<namespace>]/<label>-<region>
  // (so several campaigns can share one root) every
  // campaign_checkpoint_every_hours simulated hours, and a killed run
  // resumes via campaign_runner::resume. Empty disables durability (see
  // campaign_config). The platform refuses to hand the same subdirectory
  // to two campaigns (state_error): two writers would silently
  // overwrite each other's checkpoints.
  std::string campaign_checkpoint_dir;
  // Extra path segment between the root and <label>-<region>. The
  // campaign service sets it per (tenant, campaign id) so tenants
  // submitting the same region never share checkpoint state; batch runs
  // leave it empty and get the historical layout.
  std::string campaign_namespace;
  unsigned campaign_checkpoint_every_hours{24};
  // Distributed replay (src/dist/): shard every campaign this platform
  // runs across this many worker processes. 1 = in-process replay (the
  // default); N > 1 forks N workers under a shard coordinator. Output
  // is byte-identical at any shard count — sharding only buys wall
  // clock and failure isolation.
  std::size_t campaign_shards{1};
  // Observability (src/obs/). When obs_metrics is true the platform
  // enables the process-wide registry and pre-creates every core metric
  // family, so an exposition after any run covers the full taxonomy.
  // Metrics never alter campaign output — byte-identical on or off.
  bool obs_metrics{false};
  // Heartbeat cadence handed to every campaign this platform deploys
  // (campaign_config::heartbeat_every_hours); 0 disables the line.
  unsigned obs_heartbeat_every_hours{0};
  // Trace-span ring capacity; 0 keeps the default (256 spans).
  std::size_t obs_span_ring_capacity{0};
  // Campaign service daemon knobs ([service] in the INI); ignored by
  // batch runs.
  service_settings service{};
};

class clasp_platform {
 public:
  explicit clasp_platform(platform_config config = {});

  // --- substrate access ---
  const internet& net() const { return net_; }
  internet& net() { return net_; }
  const network_view& view() const { return *view_; }
  route_planner& planner() { return *planner_; }
  gcp_cloud& cloud() { return *cloud_; }
  const server_registry& registry() const { return registry_; }
  tsdb& store() { return store_; }
  const tsdb& store() const { return store_; }
  const platform_config& config() const { return config_; }

  // --- selection (§3.1) ---
  // Runs the pilot scan + topology-based selection for a region (cached).
  const topology_selection_result& select_topology(const std::string& region);
  // Runs the latency pre-test + differential selection (cached). With
  // config.differential.swarm enabled the pre-test probes through this
  // platform's persistent vantage swarm (its credit ledgers accumulate
  // across regions and ride along in campaign checkpoints); disabled, it
  // leases a fresh fixed panel per pre-test, exactly the legacy behavior.
  const differential_selection_result& select_differential(
      const std::string& region);

  // The platform's pre-test swarm (always constructed; disabled unless
  // config.differential.swarm.enabled).
  vantage_swarm& pretest_swarm() { return *swarm_; }
  const vantage_swarm& pretest_swarm() const { return *swarm_; }

  // --- campaigns (§3.2) ---
  // Deploy and return the topology campaign for a region (servers come
  // from select_topology). The caller runs it (run() or run_hour()).
  campaign_runner& start_topology_campaign(
      const std::string& region, hour_range window = topology_campaign_window());
  // Deploy the premium+standard VM pair measuring the differential
  // server list. Returns {premium runner, standard runner}.
  std::pair<campaign_runner*, campaign_runner*> start_differential_campaign(
      const std::string& region,
      hour_range window = differential_campaign_window());

  // All campaign runners created so far.
  const std::vector<std::unique_ptr<campaign_runner>>& campaigns() const {
    return campaigns_;
  }

  // --- helpers ---
  timezone_offset timezone_of_server(std::size_t server_id) const;
  // Query download series + matching timezones for a campaign label+region.
  // All three vectors are index-aligned. A series whose `server` tag is
  // missing or not a whole decimal server id throws state_error.
  struct labeled_series {
    std::vector<const ts_series*> series;
    std::vector<timezone_offset> tz;
    std::vector<std::size_t> server_ids;
  };
  labeled_series download_series(const std::string& campaign_label,
                                 const std::string& region,
                                 const std::string& metric = "download_mbps",
                                 const std::string& tier = "") const;

  // Per-interconnect congestion report for a region's topology campaign:
  // each measured server covers one interdomain link, so its congestion
  // summary is that link's. Requires select_topology(region) to have run
  // and the campaign data to be in the store; links without data are
  // skipped. `threshold` is the V_H congestion threshold.
  std::vector<interconnect_report> interconnect_congestion(
      const std::string& region, double threshold = 0.5);

 private:
  // The checkpoint subdirectory for a campaign, claimed exactly once:
  // a second campaign resolving to the same path is a state_error, not
  // a silent interleave. Empty when durability is off.
  std::string claim_checkpoint_subdir(const std::string& label,
                                      const std::string& region);

  platform_config config_;
  std::set<std::string> claimed_checkpoint_dirs_;
  internet net_;
  std::unique_ptr<route_planner> planner_;
  std::unique_ptr<network_view> view_;
  std::unique_ptr<gcp_cloud> cloud_;
  std::unique_ptr<vantage_swarm> swarm_;
  server_registry registry_;
  tsdb store_;
  rng rng_;
  std::map<std::string, topology_selection_result> topology_results_;
  std::map<std::string, differential_selection_result> differential_results_;
  std::vector<std::unique_ptr<campaign_runner>> campaigns_;
};

}  // namespace clasp
