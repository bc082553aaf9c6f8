// bdrmap-style interdomain border inference (Luckie et al., IMC'16 subset).
//
// The pilot scan traceroutes from a cloud VM to one target in every
// announced (non-cloud) prefix, then infers where each path crossed the
// cloud's border. The inference is needed because both interfaces of a
// cloud peering are numbered from the cloud's interconnect pool, so naive
// prefix-to-AS mapping attributes the far-side interface to the cloud
// itself. The heuristic used here is the core bdrmap rule the paper
// relies on: a hop inside the announced cloud space whose *successor*
// (or the probe destination, when the successor is missing) resolves to
// a different origin AS is the far side of an interdomain link, and that
// AS is the neighbor.
#pragma once

#include <unordered_map>
#include <vector>

#include "data/prefix2as.hpp"
#include "netsim/network.hpp"
#include "netsim/routing.hpp"
#include "probes/traceroute.hpp"

namespace clasp {

// One inferred interdomain link, keyed by its far-side interface.
struct border_observation {
  ipv4_addr far_side;
  asn neighbor;            // inferred neighbor AS
  millis min_rtt{1e9};     // best RTT seen to the far side
  std::size_t path_count{0};  // traceroutes that crossed this link
};

struct bdrmap_result {
  std::vector<border_observation> links;
  // far-side address value -> index into `links`.
  std::unordered_map<std::uint32_t, std::size_t> by_far_side;
  std::size_t traceroutes_run{0};

  bool contains(ipv4_addr far) const {
    return by_far_side.contains(far.value());
  }
};

class bdrmap {
 public:
  bdrmap(const route_planner* planner, const prober* prober,
         const prefix2as_table* prefix2as);

  // Analyze one traceroute and merge any border crossing into `result`.
  // Returns whether the trace crossed a border.
  bool absorb(const traceroute_result& trace, bdrmap_result& result) const;

  // Full pilot scan from a VM endpoint: traceroute toward one address in
  // every announced host prefix of every non-cloud AS, using the given
  // tier (the paper's pilot uses the default premium tier). Every
  // traceroute runs at `at`, so the scan reads link states through one
  // hour_link_memo: its own, or the caller's when one is given (it must
  // be for `at`).
  bdrmap_result run_pilot(const endpoint& vm, service_tier tier,
                          hour_stamp at, rng& r,
                          hour_link_memo* memo = nullptr) const;

  // Extract the far-side crossing (if any) from a single traceroute.
  std::optional<std::pair<ipv4_addr, asn>> find_border(
      const traceroute_result& trace) const;

 private:
  const route_planner* planner_;
  const prober* prober_;
  const prefix2as_table* prefix2as_;
};

}  // namespace clasp
