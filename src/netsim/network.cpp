#include "netsim/network.hpp"

#include <sys/mman.h>

#include <new>

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

hour_link_memo::hour_link_memo(const network_view* view, hour_stamp at)
    : view_(view), at_(at) {
  if (view == nullptr) {
    throw invalid_argument_error("hour_link_memo: null view");
  }
  entries_ = 2 * view->net().topo->link_count();
  bytes_ = entries_ * (sizeof(link_condition) + 1);
  if (bytes_ == 0) return;
  pages_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages_ == MAP_FAILED) throw std::bad_alloc();
  conds_ = static_cast<link_condition*>(pages_);
  filled_ = reinterpret_cast<unsigned char*>(conds_ + entries_);
}

hour_link_memo::~hour_link_memo() {
  if (pages_ != nullptr) munmap(pages_, bytes_);
}

const link_condition& hour_link_memo::state(link_index l, link_dir dir) {
  const std::size_t i =
      2 * std::size_t{l.value} + (dir == link_dir::a_to_b ? 0 : 1);
  if (i >= entries_) {
    throw invalid_argument_error("hour_link_memo: link outside the table");
  }
  if (filled_[i] == 0) {
    ::new (conds_ + i) link_condition(view_->link_state(l, dir, at_));
    filled_[i] = 1;
  }
  return conds_[i];
}

void network_view::check_memo(const hour_link_memo* memo,
                              hour_stamp at) const {
  if (memo != nullptr && !memo->serves(this, at)) {
    throw invalid_argument_error(
        "network_view: memo is for another view or hour");
  }
}

link_condition network_view::state_of(link_index l, link_dir dir,
                                      hour_stamp at,
                                      hour_link_memo* memo) const {
  return memo != nullptr ? memo->state(l, dir) : link_state(l, dir, at);
}

path_metrics network_view::evaluate(const route_path& path, hour_stamp at,
                                    hour_link_memo* memo) const {
  check_memo(memo, at);
  path_metrics m;
  m.bottleneck = mbps{1e12};
  double pass = 1.0;
  for_each_hop(path, [&](const path_hop& h) {
    const link_info& info = net_->topo->link_at(h.link);
    const link_condition data = state_of(h.link, h.dir, at, memo);
    const link_condition ack = state_of(h.link, reverse(h.dir), at, memo);
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

void network_view::router_delays(const route_path& path, hour_stamp at,
                                 std::vector<millis>& out,
                                 hour_link_memo* memo) const {
  check_memo(memo, at);
  out.resize(path.routers.size());
  // One running sum, extended by one transit hop per router, in the
  // order the per-router sum (source access, then transit hops 0..i-1)
  // adds its terms.
  millis running{0.0};
  if (path.src_access) {
    const link_info& info = net_->topo->link_at(path.src_access->link);
    const link_condition c =
        state_of(path.src_access->link, path.src_access->dir, at, memo);
    running = running + info.propagation + c.queue_delay;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0 && i - 1 < path.transit_hops.size()) {
      const path_hop& h = path.transit_hops[i - 1];
      const link_info& info = net_->topo->link_at(h.link);
      const link_condition c = state_of(h.link, h.dir, at, memo);
      running = running + info.propagation + c.queue_delay;
    }
    out[i] = running + millis{0.08 * static_cast<double>(i + 1)};
  }
}

millis network_view::delay_to_router(const route_path& path,
                                     std::size_t router_i,
                                     hour_stamp at) const {
  if (router_i >= path.routers.size()) {
    throw invalid_argument_error("network_view: router index out of range");
  }
  std::vector<millis> delays;
  router_delays(path, at, delays);
  return delays[router_i];
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
