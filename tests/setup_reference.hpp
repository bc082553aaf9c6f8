// Reference versions of the set-up kernels, kept as oracles.
//
// Each function below is the code the library ran before its set-up
// kernel was rewritten for speed: the per-router re-walk behind traceroute
// RTTs, the per-traceroute pilot without a link-state memo, and topology
// selection over a freshly built prefix table. The oracle tests compare
// the rewritten kernels with these inside one build, value for value, so
// a single flipped bit fails them whatever libm the toolchain ships.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "clasp/selection.hpp"
#include "netsim/network.hpp"
#include "netsim/routing.hpp"
#include "probes/bdrmap.hpp"
#include "probes/traceroute.hpp"
#include "speedtest/registry.hpp"
#include "util/rng.hpp"

namespace clasp::reference {

// Cumulative one-way delay to router `router_i`, re-walking the path from
// the source for every router.
inline millis delay_to_router(const network_view& view,
                              const route_path& path, std::size_t router_i,
                              hour_stamp at) {
  const topology& topo = *view.net().topo;
  millis total{0.0};
  if (path.src_access) {
    const link_info& info = topo.link_at(path.src_access->link);
    const link_condition c =
        view.link_state(path.src_access->link, path.src_access->dir, at);
    total = total + info.propagation + c.queue_delay;
  }
  for (std::size_t i = 0; i < router_i && i < path.transit_hops.size(); ++i) {
    const path_hop& h = path.transit_hops[i];
    const link_info& info = topo.link_at(h.link);
    const link_condition c = view.link_state(h.link, h.dir, at);
    total = total + info.propagation + c.queue_delay;
  }
  return total + millis{0.08 * static_cast<double>(router_i + 1)};
}

// Traceroute with per-router re-walks, drawing from `r` exactly as
// prober::traceroute does.
inline traceroute_result traceroute(const network_view& view,
                                    const route_path& path, hour_stamp at,
                                    rng& r, double nonresponse_prob = 0.02) {
  const topology& topo = *view.net().topo;
  traceroute_result out;
  out.src = path.src_addr;
  out.dst = path.dst_addr;
  out.at = at;
  unsigned ttl = 1;
  for (std::size_t i = 0; i < path.routers.size(); ++i) {
    traceroute_hop hop;
    hop.ttl = ttl++;
    hop.rtt = delay_to_router(view, path, i, at) * 2.0 +
              millis{r.exponential(2.0)};
    if (!r.bernoulli(nonresponse_prob)) {
      if (i == 0) {
        hop.address = topo.router_at(path.routers[i]).loopback;
      } else {
        hop.address =
            topo.interface_on(path.routers[i], path.transit_hops[i - 1].link);
      }
    }
    out.hops.push_back(hop);
  }
  if (path.dst_access) {
    traceroute_hop hop;
    hop.ttl = ttl;
    hop.rtt = view.evaluate(path, at).rtt + millis{r.exponential(2.0)};
    hop.address = path.dst_addr;
    out.hops.push_back(hop);
    out.reached = true;
  } else {
    out.reached = !out.hops.empty() && out.hops.back().address.has_value();
  }
  return out;
}

// The pilot scan: one reference traceroute per attempt, and a retry ends
// when find_border sees a border or the link list grew.
inline bdrmap_result run_pilot(const route_planner& planner,
                               const network_view& view, const bdrmap& mapper,
                               const endpoint& vm, service_tier tier,
                               hour_stamp at, rng& r) {
  bdrmap_result result;
  const internet& net = planner.net();
  for (const as_info& a : net.topo->ases()) {
    if (a.index == net.cloud) continue;
    for (std::size_t pi = 1; pi < a.prefixes.size(); ++pi) {
      const announced_prefix& p = a.prefixes[pi];
      std::vector<std::uint64_t> offsets{1};
      if (p.prefix.size() > 256) offsets.push_back(p.prefix.size() - 255);
      for (const std::uint64_t off : offsets) {
        const endpoint dst{a.index, p.anchor, p.prefix.address_at(off),
                           std::nullopt};
        const route_path path = planner.from_cloud(vm, dst, tier);
        for (int attempt = 0; attempt < 3; ++attempt) {
          const traceroute_result trace = traceroute(view, path, at, r);
          ++result.traceroutes_run;
          const std::size_t before = result.links.size();
          mapper.absorb(trace, result);
          if (mapper.find_border(trace) || result.links.size() > before) {
            break;
          }
        }
      }
    }
  }
  return result;
}

// topology_selector::run over a prefix table built for the run, with the
// reference pilot and traceroutes.
inline topology_selection_result select(
    const route_planner& planner, const network_view& view,
    const server_registry& registry, const endpoint& vm,
    const topology_selection_config& config, hour_stamp at, rng& r) {
  topology_selection_result result;
  const prober probe(&planner, &view);
  const prefix2as_table prefix2as = planner.net().topo->build_prefix2as();
  const bdrmap mapper(&planner, &probe, &prefix2as);
  result.pilot = run_pilot(planner, view, mapper, vm, config.tier, at, r);

  struct server_obs {
    std::size_t server_id;
    ipv4_addr far_side;
    asn neighbor;
    std::size_t as_path_len;
    millis rtt;
  };
  std::vector<server_obs> observations;
  const std::vector<std::size_t> candidates = registry.crawl(config.country);
  result.servers_probed = candidates.size();
  for (const std::size_t sid : candidates) {
    const endpoint dst = planner.endpoint_of_host(registry.server(sid).host);
    const route_path forward = planner.from_cloud(vm, dst, config.tier);
    traceroute_result trace = traceroute(view, forward, at, r);
    auto border = mapper.find_border(trace);
    for (int attempt = 1; attempt < 3 && !border; ++attempt) {
      trace = traceroute(view, forward, at, r);
      border = mapper.find_border(trace);
    }
    if (!border) continue;
    const auto [far, neighbor] = *border;
    if (!result.pilot.contains(far)) continue;
    observations.push_back(
        {sid, far, neighbor, planner.as_hops_to_destination(forward),
         trace.hops.empty() ? millis{0.0} : trace.hops.back().rtt});
  }

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
  std::sort(per_link.begin(), per_link.end(),
            [](const selected_server& a, const selected_server& b) {
              if (a.as_path_len != b.as_path_len) {
                return a.as_path_len < b.as_path_len;
              }
              if (a.rtt != b.rtt) return a.rtt < b.rtt;
              return a.far_side < b.far_side;
            });
  if (per_link.size() > config.deployment_budget) {
    per_link.resize(config.deployment_budget);
  }
  result.selected = std::move(per_link);
  return result;
}

}  // namespace clasp::reference
