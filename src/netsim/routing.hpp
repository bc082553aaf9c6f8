// Tier-aware path construction over the generated topology.
//
// GCP's two network service tiers differ in where traffic crosses the
// boundary between the public Internet and the cloud WAN (§1 of the
// paper):
//
//  * premium  — cold potato. Egress rides the private WAN to the PoP
//    nearest the destination and exits there; ingress enters the WAN at
//    the interconnect nearest the *source* and rides the WAN to the
//    region.
//  * standard — hot potato. Egress exits at the origin region's PoP and
//    crosses the public Internet; ingress stays on the public Internet
//    and enters the cloud at the region's PoP.
//
// The planner also models two per-region BGP-policy effects that make
// Table 1 region-dependent in the real measurement:
//  * concentration — the probability that an AS's traffic to/from a region
//    is steered through the interconnect nearest the region rather than
//    nearest the edge endpoint (deterministic per ⟨region, AS⟩);
//  * visibility — the fraction of interconnects whose routes a region's
//    VMs actually see (deterministic per ⟨region, link⟩).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "netsim/generator.hpp"
#include "netsim/topology.hpp"

namespace clasp {

enum class service_tier { premium, standard };

const char* to_string(service_tier tier);

// One link crossing with its traversal direction.
struct path_hop {
  link_index link;
  link_dir dir;
};

// A unidirectional data path. Access hops are present only when the
// corresponding endpoint is an attached host (bdrmap probes target bare
// prefix addresses, which have no host access link).
struct route_path {
  ipv4_addr src_addr;
  ipv4_addr dst_addr;
  std::optional<path_hop> src_access;
  std::vector<router_index> routers;
  // transit_hops[i] crosses from routers[i] to routers[i+1].
  std::vector<path_hop> transit_hops;
  std::optional<path_hop> dst_access;
  // The cloud interdomain link crossed, when the path enters/leaves the
  // cloud AS (the link bdrmap would attribute this path to).
  std::optional<link_index> cloud_edge;

  std::size_t hop_count() const { return routers.size(); }
};

// One end of a path.
struct endpoint {
  as_index owner;
  city_id city;
  ipv4_addr addr;
  std::optional<host_index> host;
};

// Per-region routing-policy knobs (see file comment).
struct egress_policy {
  double concentration{0.2};
  double visibility{0.90};
};

class route_planner {
 public:
  explicit route_planner(const internet* net);

  // Install the policy for a region's home PoP city.
  void set_region_policy(city_id region_city, egress_policy policy);
  egress_policy region_policy(city_id region_city) const;

  // Build endpoints.
  endpoint endpoint_of_host(host_index h) const;
  // Endpoint for an arbitrary routed address (e.g. a bdrmap probe target):
  // resolves owner and anchor city through the announced prefixes. Throws
  // not_found_error for unrouted space.
  endpoint endpoint_of_address(ipv4_addr addr) const;

  // Data path from an edge endpoint into a cloud endpoint (a VM or PoP).
  // `region_city` is the VM's region home city.
  route_path to_cloud(const endpoint& src, const endpoint& vm,
                      service_tier tier) const;
  // Data path from a cloud endpoint out to an edge endpoint.
  route_path from_cloud(const endpoint& vm, const endpoint& dst,
                        service_tier tier) const;

  // AS-level view of a path (consecutive duplicates removed).
  std::vector<asn> as_path(const route_path& path) const;
  // Number of AS-level hops from the cloud to the destination network
  // (1 = direct peering).
  std::size_t as_hops_to_destination(const route_path& path) const;

  const internet& net() const { return *net_; }
  // The topology's prefix-to-AS table, built once with the planner.
  const prefix2as_table& prefix2as() const { return prefix2as_; }

 private:
  struct cloud_link_ref {
    link_index link;
    city_id pop_city;   // cloud-side city
  };

  // Candidate cloud links for reaching AS `a` (its own, else its
  // transit's). Returns the AS whose links were used via `via`.
  const std::vector<cloud_link_ref>& cloud_links_for(as_index a,
                                                     as_index& via) const;

  // Choose the interconnect for a premium-tier path between edge city
  // `edge_city` and region `region_city` for AS `a`. `flow_addr` is the
  // edge endpoint's address: different prefixes of a multi-homed AS are
  // deterministically steered to different (nearby) interconnects, as BGP
  // per-prefix announcements do in the real Internet.
  // `sticky` marks host-to-host flows: their AS-level routing policy
  // (concentration) applies. Probes to bare prefix addresses observe the
  // full per-/24 path diversity instead, as real bdrmap probing does.
  cloud_link_ref pick_premium_edge(as_index a, city_id edge_city,
                                   city_id region_city, ipv4_addr flow_addr,
                                   bool sticky, as_index& via) const;
  // Choose the interconnect for a standard-tier path (at the region).
  cloud_link_ref pick_standard_edge(as_index a, city_id region_city,
                                    as_index& via) const;

  // `visibility` is region_policy(region_city).visibility.
  static bool link_visible(double visibility, city_id region_city,
                           link_index l);
  bool concentrated(city_id region_city, as_index a) const;

  // Append the chain of routers/links inside one AS between two of its
  // routers (direct backbone hop; they are fully meshed).
  void append_intra(route_path& path, router_index from,
                    router_index to) const;
  // Append crossing `l` from router `from`.
  void append_link(route_path& path, link_index l, router_index from) const;

  link_index intra_link(router_index a, router_index b) const;
  link_index transit_link_of(as_index a) const;

  const internet* net_;
  std::unordered_map<std::uint32_t, egress_policy> policies_;
  // Cloud links indexed by non-cloud neighbor (built in the constructor).
  std::unordered_map<std::uint32_t, std::vector<cloud_link_ref>>
      cloud_links_cache_;
  // Prefix lookup for endpoint_of_address.
  prefix2as_table prefix2as_;
  std::unordered_map<std::uint32_t, as_index> asn_to_index_;
};

}  // namespace clasp
