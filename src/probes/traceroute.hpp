// Active probing tools: ping and paris-traceroute (scamper analogue).
//
// Traceroute output follows real semantics: each hop reports the address
// of the interface the probe *arrived* on, per-hop RTTs include the load
// model's queueing delay at probe time, and a small fraction of routers
// do not respond (shown as a missing address), as in real campaigns.
#pragma once

#include <optional>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/routing.hpp"
#include "util/rng.hpp"

namespace clasp {

struct traceroute_hop {
  unsigned ttl{0};
  // Responding interface; nullopt renders as "*" (no response).
  std::optional<ipv4_addr> address;
  millis rtt{0.0};
};

struct traceroute_result {
  ipv4_addr src;
  ipv4_addr dst;
  hour_stamp at;
  std::vector<traceroute_hop> hops;
  bool reached{false};
};

class prober {
 public:
  // `nonresponse_prob` is the chance a router ignores TTL-expired probes.
  prober(const route_planner* planner, const network_view* view,
         double nonresponse_prob = 0.02);

  // ICMP-style RTT measurement over an already-computed path.
  millis ping(const route_path& path, hour_stamp at, rng& r) const;

  // Paris-traceroute over a path: per-hop interfaces and RTTs. The final
  // hop is the destination address when the endpoint is a host. A memo
  // for `at`, when given, serves the link states (a burst of traceroutes
  // at one hour shares it); the result is the same either way.
  traceroute_result traceroute(const route_path& path, hour_stamp at,
                               rng& r, hour_link_memo* memo = nullptr) const;

  const network_view& view() const { return *view_; }

 private:
  const route_planner* planner_;
  const network_view* view_;
  double nonresponse_prob_;
};

// Alias resolution (MIDAR/iffinder analogue): maps an interface address to
// the set of addresses on the same router. The substrate resolves from
// topology ground truth; `miss_prob` models unresolvable routers.
class alias_resolver {
 public:
  explicit alias_resolver(const topology* topo, double miss_prob = 0.03);

  // All known aliases of an interface (including itself); just {addr} when
  // resolution fails.
  std::vector<ipv4_addr> aliases_of(ipv4_addr addr, rng& r) const;

  // True when two addresses belong to the same router (and resolution
  // succeeded for both).
  bool same_router(ipv4_addr a, ipv4_addr b, rng& r) const;

 private:
  const topology* topo_;
  double miss_prob_;
};

}  // namespace clasp
