#include "probes/traceroute.hpp"

#include "util/error.hpp"

namespace clasp {

prober::prober(const route_planner* planner, const network_view* view,
               double nonresponse_prob)
    : planner_(planner), view_(view), nonresponse_prob_(nonresponse_prob) {
  if (planner == nullptr || view == nullptr) {
    throw invalid_argument_error("prober: null dependency");
  }
  if (nonresponse_prob < 0.0 || nonresponse_prob > 1.0) {
    throw invalid_argument_error("prober: nonresponse_prob outside [0,1]");
  }
}

millis prober::ping(const route_path& path, hour_stamp at, rng& r) const {
  const path_metrics m = view_->evaluate(path, at);
  return millis{m.rtt.value + r.exponential(2.0)};
}

traceroute_result prober::traceroute(const route_path& path, hour_stamp at,
                                     rng& r, hour_link_memo* memo) const {
  const topology& topo = view_->net().topo.operator*();
  traceroute_result out;
  out.src = path.src_addr;
  out.dst = path.dst_addr;
  out.at = at;

  // Link-state reads draw nothing from `r`, so every delay can be taken
  // in one walk before the per-hop draws.
  std::vector<millis> delays;
  view_->router_delays(path, at, delays, memo);
  out.hops.reserve(path.routers.size() + (path.dst_access ? 1 : 0));
  unsigned ttl = 1;
  for (std::size_t i = 0; i < path.routers.size(); ++i) {
    traceroute_hop hop;
    hop.ttl = ttl++;
    hop.rtt = delays[i] * 2.0 + millis{r.exponential(2.0)};
    if (!r.bernoulli(nonresponse_prob_)) {
      if (i == 0) {
        // First router: the probe arrives over the source access link, so
        // the responding interface is the router's representative address.
        hop.address = topo.router_at(path.routers[i]).loopback;
      } else {
        hop.address =
            topo.interface_on(path.routers[i], path.transit_hops[i - 1].link);
      }
    }
    out.hops.push_back(hop);
  }

  // Destination host answers from its own address.
  if (path.dst_access) {
    traceroute_hop hop;
    hop.ttl = ttl;
    const path_metrics m = view_->evaluate(path, at, memo);
    hop.rtt = m.rtt + millis{r.exponential(2.0)};
    hop.address = path.dst_addr;
    out.hops.push_back(hop);
    out.reached = true;
  } else {
    // Bare prefix targets respond from the last router (common for
    // infrastructure probing).
    out.reached = !out.hops.empty() && out.hops.back().address.has_value();
  }
  return out;
}

alias_resolver::alias_resolver(const topology* topo, double miss_prob)
    : topo_(topo), miss_prob_(miss_prob) {
  if (topo == nullptr) {
    throw invalid_argument_error("alias_resolver: null topology");
  }
}

std::vector<ipv4_addr> alias_resolver::aliases_of(ipv4_addr addr,
                                                  rng& r) const {
  const auto router = topo_->router_of_interface(addr);
  if (!router || r.bernoulli(miss_prob_)) return {addr};
  return topo_->interfaces_of(*router);
}

bool alias_resolver::same_router(ipv4_addr a, ipv4_addr b, rng& r) const {
  if (r.bernoulli(miss_prob_)) return false;
  const auto ra = topo_->router_of_interface(a);
  const auto rb = topo_->router_of_interface(b);
  return ra && rb && *ra == *rb;
}

}  // namespace clasp
