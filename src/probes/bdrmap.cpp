#include "probes/bdrmap.hpp"

#include "netsim/generator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp {

bdrmap::bdrmap(const route_planner* planner, const prober* prober,
               const prefix2as_table* prefix2as)
    : planner_(planner), prober_(prober), prefix2as_(prefix2as) {
  if (planner == nullptr || prober == nullptr || prefix2as == nullptr) {
    throw invalid_argument_error("bdrmap: null dependency");
  }
}

std::optional<std::pair<ipv4_addr, asn>> bdrmap::find_border(
    const traceroute_result& trace) const {
  const ipv4_prefix interconnect = cloud_interconnect_pool();
  const asn cloud = cloud_asn();

  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    const auto& hop = trace.hops[i];
    if (!hop.address || !interconnect.contains(*hop.address)) continue;

    // Candidate far side: confirm the next responsive hop (or the
    // destination) belongs to a non-cloud AS.
    std::optional<asn> next_origin;
    for (std::size_t j = i + 1; j < trace.hops.size(); ++j) {
      if (!trace.hops[j].address) continue;
      if (interconnect.contains(*trace.hops[j].address)) break;  // still edge
      next_origin = prefix2as_->lookup(*trace.hops[j].address);
      break;
    }
    // Fallback neighbor attribution: the destination's origin AS.
    if (!next_origin) next_origin = prefix2as_->lookup(trace.dst);
    if (!next_origin || *next_origin == cloud) continue;
    return std::make_pair(*hop.address, *next_origin);
  }
  return std::nullopt;
}

bool bdrmap::absorb(const traceroute_result& trace,
                    bdrmap_result& result) const {
  const auto border = find_border(trace);
  if (!border) return false;
  const auto [far, neighbor] = *border;

  // RTT to the far side: the hop's own RTT.
  millis far_rtt{1e9};
  for (const auto& hop : trace.hops) {
    if (hop.address && *hop.address == far) {
      far_rtt = hop.rtt;
      break;
    }
  }

  const auto it = result.by_far_side.find(far.value());
  if (it == result.by_far_side.end()) {
    result.by_far_side.emplace(far.value(), result.links.size());
    result.links.push_back(border_observation{far, neighbor, far_rtt, 1});
  } else {
    border_observation& obs = result.links[it->second];
    obs.path_count += 1;
    if (far_rtt < obs.min_rtt) obs.min_rtt = far_rtt;
  }
  return true;
}

bdrmap_result bdrmap::run_pilot(const endpoint& vm, service_tier tier,
                                hour_stamp at, rng& r,
                                hour_link_memo* memo) const {
  std::optional<hour_link_memo> own_memo;
  if (memo == nullptr) memo = &own_memo.emplace(&prober_->view(), at);
  bdrmap_result result;
  const internet& net = planner_->net();

  for (const as_info& a : net.topo->ases()) {
    if (a.index == net.cloud) continue;
    // prefixes[0] is the AS's infrastructure prefix; host prefixes follow.
    for (std::size_t pi = 1; pi < a.prefixes.size(); ++pi) {
      const announced_prefix& p = a.prefixes[pi];
      // Real bdrmap probes every /24 of every prefix; the first and last
      // /24 capture the per-/24 egress diversity at a fraction of the cost.
      std::vector<std::uint64_t> offsets{1};
      if (p.prefix.size() > 256) offsets.push_back(p.prefix.size() - 255);
      for (const std::uint64_t off : offsets) {
        const ipv4_addr target = p.prefix.address_at(off);
        endpoint dst{a.index, p.anchor, target, std::nullopt};
        const route_path path = planner_->from_cloud(vm, dst, tier);
        // Unresponsive hops hide borders; scamper-style retries recover
        // them (up to three attempts per target). Links grow only when a
        // border is found, so a found border alone ends the retries.
        for (int attempt = 0; attempt < 3; ++attempt) {
          const traceroute_result trace =
              prober_->traceroute(path, at, r, memo);
          ++result.traceroutes_run;
          if (absorb(trace, result)) break;
        }
      }
    }
  }
  CLASP_LOG(info, "bdrmap") << "pilot: " << result.traceroutes_run
                            << " traceroutes, " << result.links.size()
                            << " interdomain links";
  return result;
}

}  // namespace clasp
