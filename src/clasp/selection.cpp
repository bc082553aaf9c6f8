#include "clasp/selection.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp {

topology_selector::topology_selector(const route_planner* planner,
                                     const network_view* view,
                                     const server_registry* registry)
    : planner_(planner), view_(view), registry_(registry) {
  if (planner == nullptr || view == nullptr || registry == nullptr) {
    throw invalid_argument_error("topology_selector: null dependency");
  }
}

topology_selection_result topology_selector::run(
    const endpoint& vm, const topology_selection_config& config,
    hour_stamp at, rng& r) const {
  topology_selection_result result;
  const prober probe(planner_, view_);
  const bdrmap border_mapper(planner_, &probe, &planner_->prefix2as());
  // Every probe of this run is at `at`: one memo serves the pilot and the
  // server traceroutes, and dies with the run.
  hour_link_memo memo(view_, at);

  // 1. Pilot scan: discover the region's interdomain links.
  result.pilot = border_mapper.run_pilot(vm, config.tier, at, r, &memo);

  // 2-3. Traceroute to every candidate server; extract the border crossing.
  struct server_obs {
    std::size_t server_id;
    ipv4_addr far_side;
    asn neighbor;
    std::size_t as_path_len;
    millis rtt;
  };
  std::vector<server_obs> observations;
  const std::vector<std::size_t> candidates = registry_->crawl(config.country);
  result.servers_probed = candidates.size();

  for (const std::size_t sid : candidates) {
    const speed_server& server = registry_->server(sid);
    const endpoint dst = planner_->endpoint_of_host(server.host);
    const route_path forward = planner_->from_cloud(vm, dst, config.tier);
    // Retry when a non-responding hop hides the border crossing.
    traceroute_result trace = probe.traceroute(forward, at, r, &memo);
    auto border = border_mapper.find_border(trace);
    for (int attempt = 1; attempt < 3 && !border; ++attempt) {
      trace = probe.traceroute(forward, at, r, &memo);
      border = border_mapper.find_border(trace);
    }
    if (!border) continue;
    const auto [far, neighbor] = *border;
    // Only links confirmed by the pilot count (alias matching in the real
    // pipeline; exact far-side interfaces here).
    if (!result.pilot.contains(far)) continue;
    observations.push_back(
        {sid, far, neighbor, planner_->as_hops_to_destination(forward),
         trace.hops.empty() ? millis{0.0} : trace.hops.back().rtt});
  }

  // 4. Group by far-side interface.
  std::unordered_map<std::uint32_t, std::vector<const server_obs*>> groups;
  for (const server_obs& obs : observations) {
    groups[obs.far_side.value()].push_back(&obs);
  }
  result.links_traversed_by_servers = groups.size();

  std::size_t sharing_servers = 0;
  for (const auto& [far, members] : groups) {
    if (members.size() > 1) sharing_servers += members.size();
  }
  result.shared_interconnect_fraction =
      observations.empty()
          ? 0.0
          : static_cast<double>(sharing_servers) /
                static_cast<double>(observations.size());

  // 5. Best server per link: shortest AS path, then lowest RTT.
  std::vector<selected_server> per_link;
  for (const auto& [far, members] : groups) {
    const server_obs* best = members.front();
    for (const server_obs* m : members) {
      if (m->as_path_len < best->as_path_len ||
          (m->as_path_len == best->as_path_len && m->rtt < best->rtt)) {
        best = m;
      }
    }
    per_link.push_back({best->server_id, best->far_side, best->neighbor,
                        best->as_path_len, best->rtt});
  }

  // Deterministic order: prefer direct peerings and nearby servers, which
  // is also the order the deployment budget truncates in.
  std::sort(per_link.begin(), per_link.end(),
            [](const selected_server& a, const selected_server& b) {
              if (a.as_path_len != b.as_path_len) {
                return a.as_path_len < b.as_path_len;
              }
              if (a.rtt != b.rtt) return a.rtt < b.rtt;
              return a.far_side < b.far_side;
            });

  // 6. Budget.
  if (per_link.size() > config.deployment_budget) {
    per_link.resize(config.deployment_budget);
  }
  result.selected = std::move(per_link);

  CLASP_LOG(info, "selection")
      << "topology selection: " << result.pilot.links.size()
      << " pilot links, " << result.links_traversed_by_servers
      << " traversed by servers, " << result.selected.size() << " selected";
  return result;
}

}  // namespace clasp
