#include "clasp/platform.hpp"

#include <algorithm>
#include <charconv>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp {

namespace {

// Mirror platform_config::fleet_scale into the internet config (which
// deploy_servers reads) before the substrate is generated. Member
// initializers run in declaration order, so this must happen inside
// config_'s initializer.
platform_config resolve_fleet_scale(platform_config config) {
  if (config.fleet_scale == 0) {
    throw invalid_argument_error(
        "platform: fleet_scale must be >= 1 (synthetic fleet multiplier; "
        "use 1 for the paper-scale fleet)");
  }
  if (config.fleet_scale != 1) {
    config.internet.fleet_scale = config.fleet_scale;
  }
  return config;
}

}  // namespace

clasp_platform::clasp_platform(platform_config config)
    : config_(resolve_fleet_scale(std::move(config))),
      rng_(hash_tag(config_.internet.seed, "platform")) {
  if (config_.obs_metrics) {
    obs::set_enabled(true);
    obs::register_core_families();
  }
  if (config_.obs_span_ring_capacity > 0) {
    obs::trace_ring::instance().set_capacity(config_.obs_span_ring_capacity);
  }
  {
    // The planner and view read neither the fleet's hosts nor its access
    // links, so the world is built whole before them.
    const obs::trace_span world_span(obs::phase::world);
    net_ = generate_internet(config_.internet);
    registry_ = deploy_servers(net_, config_.servers);
  }
  planner_ = std::make_unique<route_planner>(&net_);
  view_ = std::make_unique<network_view>(&net_);
  cloud_ = std::make_unique<gcp_cloud>(&net_, planner_.get());
  // The persistent pre-test swarm: its churn streams mix the internet
  // seed so two platforms over different worlds churn differently, and
  // its ledgers ride along in every campaign checkpoint (see
  // set_pretest_swarm below). Disabled swarms are inert — the pre-test
  // then leases a fresh fixed panel per region, the legacy behavior.
  swarm_ = std::make_unique<vantage_swarm>(
      planner_.get(), view_.get(), config_.differential.swarm,
      config_.differential.platform, config_.internet.seed);
}

const topology_selection_result& clasp_platform::select_topology(
    const std::string& region) {
  const auto it = topology_results_.find(region);
  if (it != topology_results_.end()) return it->second;

  // Pilot VM: created for the scan, terminated afterwards (the paper runs
  // the pilot once at campaign start).
  const gcp_cloud::vm_id pilot_vm =
      cloud_->create_vm(region, service_tier::premium);
  topology_selection_config sel_config;
  const auto budget = config_.topology_budgets.find(region);
  if (budget != config_.topology_budgets.end()) {
    sel_config.deployment_budget = budget->second;
  }
  topology_selector selector(planner_.get(), view_.get(), &registry_);
  rng r = rng_.fork("topo-select:" + region);
  auto result = [&] {
    const obs::trace_span select_span(obs::phase::select);
    return selector.run(cloud_->vm_endpoint(pilot_vm), sel_config,
                        topology_campaign_window().begin_at + (-72), r);
  }();
  cloud_->terminate_vm(pilot_vm);
  return topology_results_.emplace(region, std::move(result)).first->second;
}

const differential_selection_result& clasp_platform::select_differential(
    const std::string& region) {
  const auto it = differential_results_.find(region);
  if (it != differential_results_.end()) return it->second;

  const gcp_cloud::vm_id probe_vm =
      cloud_->create_vm(region, service_tier::premium);
  differential_selector selector(planner_.get(), view_.get(), &registry_);
  rng r = rng_.fork("diff-select:" + region);
  auto result = selector.run(cloud_->vm_endpoint(probe_vm),
                             config_.differential, r, swarm_.get());
  cloud_->terminate_vm(probe_vm);
  return differential_results_.emplace(region, std::move(result))
      .first->second;
}

campaign_runner& clasp_platform::start_topology_campaign(
    const std::string& region, hour_range window) {
  const topology_selection_result& selection = select_topology(region);
  std::vector<std::size_t> servers;
  servers.reserve(selection.selected.size());
  for (const selected_server& s : selection.selected) {
    servers.push_back(s.server_id);
  }
  // Selection sees only the base fleet; the campaign measures every
  // replica of each selected server (identity at fleet_scale 1).
  servers = registry_.with_replicas(servers);
  campaign_config cfg;
  cfg.region = region;
  cfg.tier = service_tier::premium;
  cfg.label = "topology";
  cfg.window = window;
  cfg.workers = config_.campaign_workers;
  cfg.faults = config_.campaign_faults;
  cfg.heartbeat_every_hours = config_.obs_heartbeat_every_hours;
  if (!config_.campaign_checkpoint_dir.empty()) {
    cfg.checkpoint_dir = claim_checkpoint_subdir(cfg.label, region);
    cfg.checkpoint_every_hours = config_.campaign_checkpoint_every_hours;
  }
  auto runner = std::make_unique<campaign_runner>(cloud_.get(), view_.get(),
                                                  &registry_, &store_);
  runner->deploy(cfg, servers);
  if (cfg.faults.enabled) runner->set_churn_registry(&registry_);
  runner->set_pretest_swarm(swarm_.get());
  campaigns_.push_back(std::move(runner));
  return *campaigns_.back();
}

std::string clasp_platform::claim_checkpoint_subdir(const std::string& label,
                                                    const std::string& region) {
  std::string dir = config_.campaign_checkpoint_dir;
  if (!config_.campaign_namespace.empty()) {
    dir += "/" + config_.campaign_namespace;
  }
  dir += "/" + label + "-" + region;
  if (!claimed_checkpoint_dirs_.insert(dir).second) {
    throw state_error(
        "clasp_platform: checkpoint dir " + dir +
        " is already claimed by another campaign — two campaigns sharing a "
        "subdirectory would overwrite each other's checkpoints; use a "
        "distinct campaign_namespace (or label/region) per campaign");
  }
  return dir;
}

std::pair<campaign_runner*, campaign_runner*>
clasp_platform::start_differential_campaign(const std::string& region,
                                            hour_range window) {
  const differential_selection_result& selection = select_differential(region);
  std::vector<std::size_t> servers;
  servers.reserve(selection.selected.size());
  for (const auto& s : selection.selected) servers.push_back(s.server_id);
  if (servers.empty()) {
    throw state_error("clasp_platform: differential selection for " + region +
                      " found no servers");
  }
  servers = registry_.with_replicas(servers);

  campaign_runner* runners[2] = {nullptr, nullptr};
  const service_tier tiers[2] = {service_tier::premium,
                                 service_tier::standard};
  const char* labels[2] = {"diff-premium", "diff-standard"};
  for (int i = 0; i < 2; ++i) {
    campaign_config cfg;
    cfg.region = region;
    cfg.tier = tiers[i];
    cfg.label = labels[i];
    cfg.window = window;
    cfg.workers = config_.campaign_workers;
    cfg.faults = config_.campaign_faults;
    cfg.heartbeat_every_hours = config_.obs_heartbeat_every_hours;
    if (!config_.campaign_checkpoint_dir.empty()) {
      cfg.checkpoint_dir = claim_checkpoint_subdir(cfg.label, region);
      cfg.checkpoint_every_hours = config_.campaign_checkpoint_every_hours;
    }
    auto runner = std::make_unique<campaign_runner>(cloud_.get(), view_.get(),
                                                    &registry_, &store_);
    runner->deploy(cfg, servers);
    if (cfg.faults.enabled) runner->set_churn_registry(&registry_);
    runner->set_pretest_swarm(swarm_.get());
    campaigns_.push_back(std::move(runner));
    runners[i] = campaigns_.back().get();
  }
  return {runners[0], runners[1]};
}

std::vector<interconnect_report> clasp_platform::interconnect_congestion(
    const std::string& region, double threshold) {
  const topology_selection_result& selection = select_topology(region);
  std::vector<interconnect_report> out;
  for (const selected_server& s : selection.selected) {
    const speed_server& server = registry_.server(s.server_id);
    const tag_set tags = {
        {"campaign", "topology"},
        {"region", region},
        {"tier", "premium"},
        {"server", std::to_string(server.id)},
        {"network", std::to_string(server.network.value)},
        {"city", net_.geo->city(server.city).name},
    };
    const ts_series* series = store_.find("download_mbps", tags);
    if (series == nullptr) continue;  // link not measured (budget/window)
    interconnect_report report;
    report.far_side = s.far_side;
    report.neighbor = s.neighbor;
    report.server_id = s.server_id;
    report.summary =
        summarize_server(*series, timezone_of_server(s.server_id), threshold);
    out.push_back(report);
  }
  return out;
}

timezone_offset clasp_platform::timezone_of_server(
    std::size_t server_id) const {
  const speed_server& s = registry_.server(server_id);
  return net_.geo->city(s.city).tz;
}

clasp_platform::labeled_series clasp_platform::download_series(
    const std::string& campaign_label, const std::string& region,
    const std::string& metric, const std::string& tier) const {
  labeled_series out;
  tag_filter filter;
  filter.required["campaign"] = campaign_label;
  filter.required["region"] = region;
  if (!tier.empty()) filter.required["tier"] = tier;
  for (const ts_series* s : store_.query(metric, filter)) {
    const auto server_tag = s->tag("server");
    if (!server_tag) {
      throw state_error("clasp_platform: series missing server tag");
    }
    std::size_t server_id = 0;
    const char* const tag_end = server_tag->data() + server_tag->size();
    const auto [parsed_end, ec] =
        std::from_chars(server_tag->data(), tag_end, server_id);
    if (ec != std::errc{} || parsed_end != tag_end) {
      throw state_error("clasp_platform: bad server tag '" + *server_tag +
                        "'");
    }
    out.series.push_back(s);
    out.tz.push_back(timezone_of_server(server_id));
    out.server_ids.push_back(server_id);
  }
  return out;
}

}  // namespace clasp
