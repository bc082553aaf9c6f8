#include "netsim/routing.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace clasp {

namespace {

double hash_unit(std::uint64_t a, std::uint64_t b, std::uint64_t salt) {
  std::uint64_t s = a * 0x9e3779b97f4a7c15ULL ^ (b << 21) ^ salt;
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(service_tier tier) {
  return tier == service_tier::premium ? "premium" : "standard";
}

route_planner::route_planner(const internet* net) : net_(net) {
  if (net == nullptr) throw invalid_argument_error("route_planner: null net");
  prefix2as_ = net->topo->build_prefix2as();
  for (const as_info& a : net->topo->ases()) {
    asn_to_index_[a.number.value] = a.index;
  }
  // Index every cloud interdomain link by its non-cloud neighbor once;
  // scanning the full link table per AS would cost O(ASes x links).
  for (const link_info& l : net->topo->links()) {
    if (l.kind != link_kind::interdomain) continue;
    const as_index oa = net->topo->owner_of(l.a);
    const as_index ob = net->topo->owner_of(l.b);
    if (oa != net->cloud && ob != net->cloud) continue;
    const router_index cloud_router = (oa == net->cloud) ? l.a : l.b;
    const as_index neighbor = (oa == net->cloud) ? ob : oa;
    cloud_links_cache_[neighbor.value].push_back(
        {l.index, net->topo->router_at(cloud_router).city});
  }
}

void route_planner::set_region_policy(city_id region_city,
                                      egress_policy policy) {
  policies_[region_city.value] = policy;
}

egress_policy route_planner::region_policy(city_id region_city) const {
  const auto it = policies_.find(region_city.value);
  return it == policies_.end() ? egress_policy{} : it->second;
}

endpoint route_planner::endpoint_of_host(host_index h) const {
  const host_info& info = net_->topo->host_at(h);
  return endpoint{info.owner, info.city, info.addr, h};
}

endpoint route_planner::endpoint_of_address(ipv4_addr addr) const {
  const auto origin = prefix2as_.lookup(addr);
  if (!origin) {
    throw not_found_error("route_planner: unrouted address " +
                          addr.to_string());
  }
  const as_index owner = asn_to_index_.at(origin->value);
  const as_info& info = net_->topo->as_at(owner);
  // Anchor city: the longest announced prefix containing the address.
  city_id anchor = info.presence.empty() ? city_id{0} : info.presence.front();
  unsigned best_len = 0;
  for (const announced_prefix& p : info.prefixes) {
    if (p.prefix.contains(addr) && p.prefix.length() >= best_len) {
      best_len = p.prefix.length();
      anchor = p.anchor;
    }
  }
  return endpoint{owner, anchor, addr, std::nullopt};
}

bool route_planner::link_visible(double visibility, city_id region_city,
                                 link_index l) {
  return hash_unit(region_city.value, l.value, 0x71517151ULL) < visibility;
}

bool route_planner::concentrated(city_id region_city, as_index a) const {
  const double conc = region_policy(region_city).concentration;
  return hash_unit(region_city.value, a.value, 0xC0C0C0ULL) < conc;
}

const std::vector<route_planner::cloud_link_ref>&
route_planner::cloud_links_for(as_index a, as_index& via) const {
  // The AS's own peerings win; otherwise its primary transit's. The
  // constructor indexed every cloud link by neighbor.
  const as_info& info = net_->topo->as_at(a);
  if (info.peers_with_cloud) {
    const auto it = cloud_links_cache_.find(a.value);
    if (it != cloud_links_cache_.end() && !it->second.empty()) {
      via = a;
      return it->second;
    }
  }
  if (!info.primary_transit) {
    throw state_error("route_planner: AS " + info.name +
                      " has no path to the cloud");
  }
  via = *info.primary_transit;
  const auto it = cloud_links_cache_.find(via.value);
  if (it == cloud_links_cache_.end() || it->second.empty()) {
    throw state_error("route_planner: transit " +
                      net_->topo->as_at(via).name +
                      " has no cloud interconnects");
  }
  return it->second;
}

route_planner::cloud_link_ref route_planner::pick_premium_edge(
    as_index a, city_id edge_city, city_id region_city, ipv4_addr flow_addr,
    bool sticky, as_index& via) const {
  const auto& candidates = cloud_links_for(a, via);
  const geo_database& geo = *net_->geo;
  const bool conc = sticky && concentrated(region_city, a);
  const double visibility = region_policy(region_city).visibility;
  // Rank candidates, visible ones first. Concentrated flows prefer the
  // interconnect nearest the region. Everything else hands off near the
  // source (cold potato) but pays a penalty for geographic backtracking,
  // so a sparse footprint never routes Mumbai -> Singapore -> Europe when
  // a link on the way exists. Distances come from the geo table, in
  // haversine_km's argument order.
  struct ranked {
    const cloud_link_ref* link;
    double distance;
    bool visible;
  };
  const double direct = geo.distance_km(edge_city, region_city);
  // One buffer per thread: the planner is shared by campaign workers.
  thread_local std::vector<ranked> order;
  order.clear();
  for (const cloud_link_ref& c : candidates) {
    double metric;
    if (conc) {
      metric = geo.distance_km(c.pop_city, region_city);
    } else {
      const double to_pop = geo.distance_km(edge_city, c.pop_city);
      const double backtrack = std::max(
          0.0, to_pop + geo.distance_km(c.pop_city, region_city) - direct);
      metric = to_pop + 0.5 * backtrack;
    }
    order.push_back(
        {&c, metric, link_visible(visibility, region_city, c.link)});
  }
  if (order.empty()) {
    throw state_error("route_planner: no interconnect candidates");
  }
  std::sort(order.begin(), order.end(), [](const ranked& x, const ranked& y) {
    if (x.visible != y.visible) return x.visible;
    return x.distance < y.distance;
  });
  std::size_t usable = 0;
  while (usable < order.size() && order[usable].visible) ++usable;
  if (usable == 0) usable = order.size();  // all hidden: routes still exist

  // Per-/24 steering: the /24 block of the flow address picks among the
  // nearest candidates with weights 62/26/12. Concentrated host flows pin
  // to the interconnect nearest the region.
  std::size_t pick = 0;
  if (!conc) {
    const double roll =
        hash_unit(flow_addr.value() >> 8, a.value, 0x9EF1A9ULL);
    if (usable >= 2 && roll >= 0.62) pick = 1;
    if (usable >= 3 && roll >= 0.88) pick = 2;
  }
  return *order[pick].link;
}

route_planner::cloud_link_ref route_planner::pick_standard_edge(
    as_index a, city_id region_city, as_index& via) const {
  // Standard tier: the public-Internet path runs all the way to the
  // region; the crossing happens at the region's own PoP when one exists,
  // else at the nearest visible interconnect to the region.
  const auto& candidates = cloud_links_for(a, via);
  for (const cloud_link_ref& c : candidates) {
    if (c.pop_city == region_city) return c;
  }
  // No link at the region PoP (typical for edge ASes): hand off through
  // the transit, which is guaranteed to interconnect at every region city.
  const as_info& info = net_->topo->as_at(a);
  if (via == a && info.primary_transit) {
    via = *info.primary_transit;
    const auto& transit_links = cloud_links_for(via, via);
    for (const cloud_link_ref& c : transit_links) {
      if (c.pop_city == region_city) return c;
    }
  }
  // Degenerate fallback: nearest link to the region.
  const geo_database& geo = *net_->geo;
  const cloud_link_ref* best = nullptr;
  double best_d = 1e18;
  for (const cloud_link_ref& c : cloud_links_for(via, via)) {
    const double d = geo.distance_km(c.pop_city, region_city);
    if (d < best_d) {
      best_d = d;
      best = &c;
    }
  }
  if (best == nullptr) {
    throw state_error("route_planner: no standard-tier interconnect");
  }
  return *best;
}

link_index route_planner::intra_link(router_index a, router_index b) const {
  const router_info& ra = net_->topo->router_at(a);
  for (const link_index li : ra.links) {
    const link_info& l = net_->topo->link_at(li);
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return li;
  }
  throw not_found_error("route_planner: no intra-AS link between routers");
}

link_index route_planner::transit_link_of(as_index a) const {
  const auto it = net_->transit_link_of.find(a.value);
  if (it == net_->transit_link_of.end()) {
    throw not_found_error("route_planner: AS " + net_->topo->as_at(a).name +
                          " has no transit link");
  }
  return it->second;
}

void route_planner::append_intra(route_path& path, router_index from,
                                 router_index to) const {
  if (from == to) return;
  const link_index li = intra_link(from, to);
  append_link(path, li, from);
}

void route_planner::append_link(route_path& path, link_index l,
                                router_index from) const {
  const link_info& info = net_->topo->link_at(l);
  const router_index to = (info.a == from) ? info.b : info.a;
  const link_dir dir = (info.a == from) ? link_dir::a_to_b : link_dir::b_to_a;
  path.transit_hops.push_back({l, dir});
  path.routers.push_back(to);
  if (info.kind == link_kind::interdomain) {
    const as_index oa = net_->topo->owner_of(info.a);
    const as_index ob = net_->topo->owner_of(info.b);
    if (oa == net_->cloud || ob == net_->cloud) path.cloud_edge = l;
  }
}

route_path route_planner::to_cloud(const endpoint& src, const endpoint& vm,
                                   service_tier tier) const {
  if (src.owner == net_->cloud) {
    throw invalid_argument_error("route_planner: source already in cloud");
  }
  const topology& topo = *net_->topo;
  route_path path;
  path.src_addr = src.addr;
  path.dst_addr = vm.addr;

  // Source access (when the endpoint is a host).
  const router_index src_router = [&] {
    if (src.host) {
      const host_info& h = topo.host_at(*src.host);
      path.src_access = path_hop{h.access, link_dir::b_to_a};
      return h.attach;
    }
    const auto r = topo.router_of(src.owner, src.city);
    if (!r) throw not_found_error("route_planner: source router missing");
    return *r;
  }();
  path.routers.push_back(src_router);

  as_index via{};
  const cloud_link_ref edge =
      (tier == service_tier::premium)
          ? pick_premium_edge(src.owner, src.city, vm.city, src.addr,
                              src.host.has_value(), via)
          : pick_standard_edge(src.owner, vm.city, via);

  const link_info& edge_link = topo.link_at(edge.link);
  const bool edge_a_is_cloud = topo.owner_of(edge_link.a) == net_->cloud;
  const router_index edge_far =
      edge_a_is_cloud ? edge_link.b : edge_link.a;  // non-cloud side
  const router_index edge_near =
      edge_a_is_cloud ? edge_link.a : edge_link.b;  // cloud side

  if (via == src.owner) {
    // Ride the source AS's backbone to its side of the interconnect.
    append_intra(path, src_router, edge_far);
  } else {
    // Cross to the transit at the AS's home attachment, then ride the
    // transit backbone to its side of the interconnect.
    const link_index tl = transit_link_of(src.owner);
    const link_info& tli = topo.link_at(tl);
    const router_index cust_side =
        (topo.owner_of(tli.a) == src.owner) ? tli.a : tli.b;
    append_intra(path, src_router, cust_side);
    append_link(path, tl, cust_side);
    append_intra(path, path.routers.back(), edge_far);
  }

  // Cross into the cloud and ride the WAN to the region gateway.
  append_link(path, edge.link, edge_far);
  const auto region_router = topo.router_of(net_->cloud, vm.city);
  if (!region_router) {
    throw not_found_error("route_planner: region has no cloud router");
  }
  append_intra(path, edge_near, *region_router);

  // VM access.
  if (vm.host) {
    const host_info& h = topo.host_at(*vm.host);
    path.dst_access = path_hop{h.access, link_dir::a_to_b};
  }
  return path;
}

route_path route_planner::from_cloud(const endpoint& vm, const endpoint& dst,
                                     service_tier tier) const {
  if (dst.owner == net_->cloud) {
    throw invalid_argument_error("route_planner: destination in cloud");
  }
  const topology& topo = *net_->topo;
  route_path path;
  path.src_addr = vm.addr;
  path.dst_addr = dst.addr;

  if (vm.host) {
    const host_info& h = topo.host_at(*vm.host);
    path.src_access = path_hop{h.access, link_dir::b_to_a};
  }
  const auto region_router = topo.router_of(net_->cloud, vm.city);
  if (!region_router) {
    throw not_found_error("route_planner: region has no cloud router");
  }
  path.routers.push_back(*region_router);

  as_index via{};
  const cloud_link_ref edge =
      (tier == service_tier::premium)
          ? pick_premium_edge(dst.owner, dst.city, vm.city, dst.addr,
                              dst.host.has_value(), via)
          : pick_standard_edge(dst.owner, vm.city, via);

  const link_info& edge_link = topo.link_at(edge.link);
  const bool edge_a_is_cloud = topo.owner_of(edge_link.a) == net_->cloud;
  const router_index edge_near = edge_a_is_cloud ? edge_link.a : edge_link.b;

  // WAN to the egress PoP, cross the interconnect.
  append_intra(path, *region_router, edge_near);
  append_link(path, edge.link, edge_near);

  // Ride the far side to the destination.
  const router_index dst_router = [&] {
    if (dst.host) return topo.host_at(*dst.host).attach;
    const auto r = topo.router_of(dst.owner, dst.city);
    if (!r) throw not_found_error("route_planner: destination router missing");
    return *r;
  }();

  if (via == dst.owner) {
    append_intra(path, path.routers.back(), dst_router);
  } else {
    // Transit backbone to the customer attachment, cross, then intra.
    const link_index tl = transit_link_of(dst.owner);
    const link_info& tli = topo.link_at(tl);
    const router_index transit_side =
        (topo.owner_of(tli.a) == via) ? tli.a : tli.b;
    append_intra(path, path.routers.back(), transit_side);
    append_link(path, tl, transit_side);
    append_intra(path, path.routers.back(), dst_router);
  }

  if (dst.host) {
    const host_info& h = topo.host_at(*dst.host);
    path.dst_access = path_hop{h.access, link_dir::a_to_b};
  }
  return path;
}

std::vector<asn> route_planner::as_path(const route_path& path) const {
  std::vector<asn> out;
  for (const router_index r : path.routers) {
    const asn owner = net_->topo->as_at(net_->topo->owner_of(r)).number;
    if (out.empty() || out.back() != owner) out.push_back(owner);
  }
  return out;
}

std::size_t route_planner::as_hops_to_destination(
    const route_path& path) const {
  const auto ases = as_path(path);
  std::size_t hops = 0;
  for (const asn a : ases) {
    if (a != cloud_asn()) ++hops;
  }
  return hops;
}

}  // namespace clasp
