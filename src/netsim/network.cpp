#include "netsim/network.hpp"

#include "util/error.hpp"

namespace clasp {

network_view::network_view(const internet* net)
    : net_(net),
      cache_(net ? std::make_unique<condition_cache>(net) : nullptr) {
  if (net == nullptr) throw invalid_argument_error("network_view: null net");
}

link_condition network_view::link_state(link_index l, link_dir dir,
                                        hour_stamp at) const {
  if (const link_condition* c = cache_->lookup(l, dir, at)) return *c;
  const link_info& info = net_->topo->link_at(l);
  return net_->load->condition(info.load_profile, l, dir, at, info.capacity,
                               info.kind);
}

template <typename Fn>
void network_view::for_each_hop(const route_path& path, Fn&& fn) const {
  if (path.src_access) fn(*path.src_access);
  for (const path_hop& h : path.transit_hops) fn(h);
  if (path.dst_access) fn(*path.dst_access);
}

path_metrics network_view::evaluate(const route_path& path,
                                    hour_stamp at) const {
  path_metrics m;
  m.bottleneck = mbps{1e12};
  double pass = 1.0;
  for_each_hop(path, [&](const path_hop& h) {
    const link_info& info = net_->topo->link_at(h.link);
    const link_condition data = link_state(h.link, h.dir, at);
    const link_condition ack = link_state(h.link, reverse(h.dir), at);
    m.base_rtt = m.base_rtt + info.propagation * 2.0;
    m.rtt = m.rtt + info.propagation * 2.0 + data.queue_delay +
            ack.queue_delay;
    pass *= (1.0 - data.loss_rate);
    if (data.available < m.bottleneck) {
      m.bottleneck = data.available;
      m.bottleneck_link = h.link;
      m.bottleneck_util = data.utilization;
    }
    if (data.episode) m.episode = true;
  });
  // Per-router forwarding adds a small fixed cost.
  const double router_cost_ms = 0.08 * static_cast<double>(path.routers.size());
  m.base_rtt = m.base_rtt + millis{2.0 * router_cost_ms};
  m.rtt = m.rtt + millis{2.0 * router_cost_ms};
  m.loss = 1.0 - pass;
  return m;
}

flat_path network_view::flatten(const route_path& path) const {
  flat_path flat;
  flat.hops.reserve(path.transit_hops.size() + 2);
  // base_rtt accumulates in the exact hop order evaluate(route_path) uses,
  // so the precomputed sum is bit-identical to the per-call one.
  millis base{0.0};
  for_each_hop(path, [&](const path_hop& h) {
    const link_info& info = net_->topo->link_at(h.link);
    flat_hop fh;
    fh.link = h.link;
    fh.dir = h.dir;
    fh.kind = info.kind;
    fh.load_profile = info.load_profile;
    fh.capacity = info.capacity;
    fh.prop_rtt = info.propagation * 2.0;
    base = base + fh.prop_rtt;
    flat.hops.push_back(fh);
  });
  flat.router_cost_rtt =
      millis{2.0 * (0.08 * static_cast<double>(path.routers.size()))};
  flat.base_rtt = base + flat.router_cost_rtt;
  return flat;
}

path_metrics network_view::evaluate(const flat_path& path,
                                    hour_stamp at) const {
  path_metrics m;
  m.bottleneck = mbps{1e12};
  double pass = 1.0;
  // Cache accounting stays in registers across the hop loop and is
  // published once per evaluation (batched sharded add), so the campaign
  // hot loop pays ~2 atomic adds per path instead of 2 per hop.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (const flat_hop& h : path.hops) {
    link_condition data;
    link_condition ack;
    if (const link_condition* c = cache_->lookup(h.link, h.dir, at)) {
      data = *c;
      ack = *cache_->lookup(h.link, reverse(h.dir), at);
      cache_hits += 2;
    } else {
      data = net_->load->condition(h.load_profile, h.link, h.dir, at,
                                   h.capacity, h.kind);
      ack = net_->load->condition(h.load_profile, h.link, reverse(h.dir), at,
                                  h.capacity, h.kind);
      cache_misses += 2;
    }
    m.rtt = m.rtt + h.prop_rtt + data.queue_delay + ack.queue_delay;
    pass *= (1.0 - data.loss_rate);
    if (data.available < m.bottleneck) {
      m.bottleneck = data.available;
      m.bottleneck_link = h.link;
      m.bottleneck_util = data.utilization;
    }
    if (data.episode) m.episode = true;
  }
  m.base_rtt = path.base_rtt;
  m.rtt = m.rtt + path.router_cost_rtt;
  m.loss = 1.0 - pass;
  cache_->note_lookups(cache_hits, cache_misses);
  return m;
}

std::size_t path_arena::add(const flat_path& path) {
  const std::size_t index = size();
  hops_.insert(hops_.end(), path.hops.begin(), path.hops.end());
  cond_.resize(hops_.size(), kUnresolved);
  offsets_.push_back(static_cast<std::uint32_t>(hops_.size()));
  base_rtt_.push_back(path.base_rtt);
  router_cost_rtt_.push_back(path.router_cost_rtt);
  return index;
}

void path_arena::resolve(const condition_cache& cache) {
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const std::uint32_t slot = cache.slot(hops_[i].link);
    cond_[i] = slot == condition_cache::kNoSlot
                   ? kUnresolved
                   : 2 * slot +
                         (hops_[i].dir == link_dir::a_to_b ? 0u : 1u);
  }
}

void network_view::evaluate_batch(const path_arena& arena, hour_stamp at,
                                  std::size_t begin_path,
                                  std::size_t end_path,
                                  path_metrics* out) const {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (std::size_t p = begin_path; p < end_path; ++p) {
    path_metrics m;
    m.bottleneck = mbps{1e12};
    double pass = 1.0;
    const std::uint32_t hop_end = arena.offsets_[p + 1];
    for (std::uint32_t i = arena.offsets_[p]; i < hop_end; ++i) {
      const flat_hop& h = arena.hops_[i];
      link_condition data;
      link_condition ack;
      const std::uint32_t c = arena.cond_[i];
      const link_condition* pair =
          c != path_arena::kUnresolved ? cache_->slot_pair(c >> 1, at)
                                       : nullptr;
      if (pair != nullptr) {
        data = pair[c & 1u];
        ack = pair[(c & 1u) ^ 1u];  // same slot, opposite direction bit
        cache_hits += 2;
      } else {
        data = net_->load->condition(h.load_profile, h.link, h.dir, at,
                                     h.capacity, h.kind);
        ack = net_->load->condition(h.load_profile, h.link, reverse(h.dir),
                                    at, h.capacity, h.kind);
        cache_misses += 2;
      }
      m.rtt = m.rtt + h.prop_rtt + data.queue_delay + ack.queue_delay;
      pass *= (1.0 - data.loss_rate);
      if (data.available < m.bottleneck) {
        m.bottleneck = data.available;
        m.bottleneck_link = h.link;
        m.bottleneck_util = data.utilization;
      }
      if (data.episode) m.episode = true;
    }
    m.base_rtt = arena.base_rtt_[p];
    m.rtt = m.rtt + arena.router_cost_rtt_[p];
    m.loss = 1.0 - pass;
    out[p] = m;
  }
  cache_->note_lookups(cache_hits, cache_misses);
}

millis network_view::base_rtt(const route_path& path) const {
  millis total{0.0};
  for_each_hop(path, [&](const path_hop& h) {
    total = total + net_->topo->link_at(h.link).propagation * 2.0;
  });
  return total + millis{0.16 * static_cast<double>(path.routers.size())};
}

millis network_view::delay_to_router(const route_path& path,
                                     std::size_t router_i,
                                     hour_stamp at) const {
  if (router_i >= path.routers.size()) {
    throw invalid_argument_error("network_view: router index out of range");
  }
  millis total{0.0};
  if (path.src_access) {
    const link_info& info = net_->topo->link_at(path.src_access->link);
    const link_condition c = link_state(path.src_access->link,
                                        path.src_access->dir, at);
    total = total + info.propagation + c.queue_delay;
  }
  for (std::size_t i = 0; i < router_i && i < path.transit_hops.size(); ++i) {
    const path_hop& h = path.transit_hops[i];
    const link_info& info = net_->topo->link_at(h.link);
    const link_condition c = link_state(h.link, h.dir, at);
    total = total + info.propagation + c.queue_delay;
  }
  return total + millis{0.08 * static_cast<double>(router_i + 1)};
}

bool network_view::episode_on_path(const route_path& path,
                                   hour_stamp at) const {
  bool active = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for_each_hop(path, [&](const path_hop& h) {
    if (active) return;
    if (const link_condition* c = cache_->lookup(h.link, h.dir, at)) {
      active = c->episode;
      ++cache_hits;
      return;
    }
    ++cache_misses;
    const link_info& info = net_->topo->link_at(h.link);
    if (net_->load->episode_active(info.load_profile, h.link, h.dir, at)) {
      active = true;
    }
  });
  cache_->note_lookups(cache_hits, cache_misses);
  return active;
}

}  // namespace clasp
