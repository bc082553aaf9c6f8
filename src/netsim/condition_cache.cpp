#include "netsim/condition_cache.hpp"

#include "obs/families.hpp"
#include "util/error.hpp"

namespace clasp {

condition_cache::condition_cache(const internet* net)
    : net_(net),
      hits_(&obs::metrics_registry::instance().get_counter(
          obs::family::kCacheHits)),
      misses_(&obs::metrics_registry::instance().get_counter(
          obs::family::kCacheMisses)),
      prefills_(&obs::metrics_registry::instance().get_counter(
          obs::family::kCachePrefills)),
      prefill_links_(&obs::metrics_registry::instance().get_counter(
          obs::family::kCachePrefillLinks)) {
  if (net == nullptr) {
    throw invalid_argument_error("condition_cache: null net");
  }
}

std::uint32_t condition_cache::register_link(link_index l) {
  // The cloud layer attaches VM access links after generation, so the
  // link id space can grow between registrations.
  if (l.value >= slot_of_.size()) {
    slot_of_.resize(net_->topo->link_count(), kNoSlot);
    if (l.value >= slot_of_.size()) {
      throw invalid_argument_error("condition_cache: unknown link");
    }
  }
  if (slot_of_[l.value] != kNoSlot) return slot_of_[l.value];
  const auto slot = static_cast<std::uint32_t>(links_.size());
  slot_of_[l.value] = slot;
  const link_info& info = net_->topo->link_at(l);
  links_.push_back({l, info.load_profile, info.capacity, info.kind});
  all_slots_.push_back(slot);
  // Registration happens before replay, so dropping the ring costs
  // nothing measurable and keeps "registered set changed" a full reset.
  // The next prefill allocates it at its final size in one go.
  std::vector<entry>().swap(ring_);
  ring_slots_ = 0;
  return slot;
}

void condition_cache::register_path(const route_path& path,
                                    std::vector<std::uint32_t>* slots) {
  const auto add = [&](link_index l) {
    const std::uint32_t slot = register_link(l);
    if (slots != nullptr) slots->push_back(slot);
  };
  if (path.src_access) add(path.src_access->link);
  for (const path_hop& h : path.transit_hops) add(h.link);
  if (path.dst_access) add(path.dst_access->link);
}

void condition_cache::fill_entry(std::uint32_t slot, hour_stamp at) {
  const registered_link& reg = links_[slot];
  entry& e = ring_[ring_index(at.hours_since_epoch()) * ring_slots_ + slot];
  e.dirs[0] = net_->load->condition(reg.load_profile, reg.link,
                                    link_dir::a_to_b, at, reg.capacity,
                                    reg.kind);
  e.dirs[1] = net_->load->condition(reg.load_profile, reg.link,
                                    link_dir::b_to_a, at, reg.capacity,
                                    reg.kind);
}

void condition_cache::prefill(hour_stamp at,
                              std::span<const std::uint32_t> slots,
                              thread_pool* pool) {
  if (ring_slots_ != links_.size()) {
    ring_.assign(static_cast<std::size_t>(kRingHours) * links_.size(),
                 entry{});
    ring_slots_ = links_.size();
  }
  // Stamping while collecting also drops repeated slots from the list.
  // No reader is live during a prefill, so stamping an entry before its
  // conditions are written cannot be observed.
  const std::int64_t hour = at.hours_since_epoch();
  entry* const hour_entries = ring_.data() + ring_index(hour) * ring_slots_;
  pending_.clear();
  for (const std::uint32_t slot : slots) {
    if (hour_entries[slot].stamp == hour) continue;
    hour_entries[slot].stamp = hour;
    pending_.push_back(slot);
  }
  if (pool != nullptr && pending_.size() > 1) {
    pool->parallel_for(pending_.size(),
                       [&](std::size_t i) { fill_entry(pending_[i], at); });
  } else {
    for (const std::uint32_t slot : pending_) fill_entry(slot, at);
  }
  prefills_->add(1);
  prefill_links_->add(pending_.size());
}

}  // namespace clasp
