#include "netsim/condition_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/routing.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_internet;

// The cache's whole contract is "same bits as calling the load model";
// these comparisons are therefore exact, not EXPECT_NEAR.
void expect_same_condition(const link_condition& a, const link_condition& b) {
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.queue_delay.value, b.queue_delay.value);
  EXPECT_EQ(a.available.value, b.available.value);
  EXPECT_EQ(a.episode, b.episode);
}

void expect_same_metrics(const path_metrics& a, const path_metrics& b) {
  EXPECT_EQ(a.base_rtt.value, b.base_rtt.value);
  EXPECT_EQ(a.rtt.value, b.rtt.value);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.bottleneck.value, b.bottleneck.value);
  EXPECT_EQ(a.bottleneck_link.value, b.bottleneck_link.value);
  EXPECT_EQ(a.bottleneck_util, b.bottleneck_util);
  EXPECT_EQ(a.episode, b.episode);
}

std::vector<link_index> path_links(const route_path& path) {
  std::vector<link_index> out;
  if (path.src_access) out.push_back(path.src_access->link);
  for (const path_hop& h : path.transit_hops) out.push_back(h.link);
  if (path.dst_access) out.push_back(path.dst_access->link);
  return out;
}

class ConditionCacheTest : public ::testing::Test {
 protected:
  ConditionCacheTest() : net_(small_internet()), planner_(&net_) {
    const city_id region = net_.geo->city_by_name("The Dalles, OR").id;
    const auto router = net_.topo->router_of(net_.cloud, region);
    const endpoint vm{net_.cloud, region,
                      net_.topo->router_at(*router).loopback, std::nullopt};
    const endpoint src =
        planner_.endpoint_of_host(net_.vantage_points.front());
    path_ = planner_.to_cloud(src, vm, service_tier::premium);
    back_ = planner_.from_cloud(vm, src, service_tier::premium);
    // A second vantage point's path: its own access link at least is off
    // path_.
    const endpoint other_src =
        planner_.endpoint_of_host(net_.vantage_points.back());
    other_ = planner_.to_cloud(other_src, vm, service_tier::premium);
  }

  link_condition direct(link_index l, link_dir dir, hour_stamp at) const {
    const link_info& info = net_.topo->link_at(l);
    return net_.load->condition(info.load_profile, l, dir, at, info.capacity,
                                info.kind);
  }

  internet& net_;
  route_planner planner_;
  route_path path_, back_, other_;
};

std::vector<std::uint32_t> sorted_distinct(std::vector<std::uint32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// Slots of `a` that are not in `b` (both sorted).
std::vector<std::uint32_t> minus(const std::vector<std::uint32_t>& a,
                                 const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::uint64_t prefill_links_total() {
  return obs::metrics_registry::instance()
      .get_counter(obs::family::kCachePrefillLinks)
      .value();
}

TEST_F(ConditionCacheTest, NullNetRejected) {
  EXPECT_THROW(condition_cache(nullptr), invalid_argument_error);
}

TEST_F(ConditionCacheTest, LookupBitIdenticalToDirectAcrossHoursAndDirs) {
  condition_cache cache(&net_);
  cache.register_path(path_);
  cache.register_path(back_);
  ASSERT_GT(cache.registered_count(), 0u);

  // Spans weekday/weekend and evening-peak hours so episode flags flip.
  for (int h = 0; h < 96; ++h) {
    const hour_stamp t = hour_stamp::from_civil({2020, 7, 3}, 0) + h;
    cache.prefill(t);
    for (const link_index l : path_links(path_)) {
      for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
        const link_condition* cached = cache.lookup(l, dir, t);
        ASSERT_NE(cached, nullptr);
        expect_same_condition(*cached, direct(l, dir, t));
      }
    }
  }
}

TEST_F(ConditionCacheTest, PooledPrefillMatchesSerialPrefill) {
  condition_cache serial(&net_);
  condition_cache pooled(&net_);
  serial.register_path(path_);
  pooled.register_path(path_);

  thread_pool pool(4);
  const hour_stamp t = hour_stamp::from_civil({2020, 8, 14}, 19);
  serial.prefill(t);
  pooled.prefill(t, &pool);
  for (const link_index l : path_links(path_)) {
    for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
      const link_condition* a = serial.lookup(l, dir, t);
      const link_condition* b = pooled.lookup(l, dir, t);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      expect_same_condition(*a, *b);
    }
  }

  // The same over a slot subset: the back path's slots only, in the
  // order the path crosses them.
  condition_cache serial_subset(&net_);
  condition_cache pooled_subset(&net_);
  std::vector<std::uint32_t> path_slots;
  std::vector<std::uint32_t> back_slots;
  for (condition_cache* c : {&serial_subset, &pooled_subset}) {
    path_slots.clear();
    back_slots.clear();
    c->register_path(path_, &path_slots);
    c->register_path(back_, &back_slots);
  }
  serial_subset.prefill(t, back_slots);
  pooled_subset.prefill(t, back_slots, &pool);
  for (const link_index l : path_links(back_)) {
    for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
      const link_condition* a = serial_subset.lookup(l, dir, t);
      const link_condition* b = pooled_subset.lookup(l, dir, t);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      expect_same_condition(*a, *b);
      expect_same_condition(*b, direct(l, dir, t));
    }
  }
  for (const std::uint32_t slot : minus(sorted_distinct(path_slots),
                                        sorted_distinct(back_slots))) {
    EXPECT_EQ(serial_subset.slot_pair(slot, t), nullptr);
    EXPECT_EQ(pooled_subset.slot_pair(slot, t), nullptr);
  }
}

TEST_F(ConditionCacheTest, SubsetPrefillLeavesOtherSlotsMissing) {
  network_view view(&net_);
  network_view plain_view(&net_);
  condition_cache& cache = view.link_cache();
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  cache.register_path(path_, &a);
  cache.register_path(other_, &b);
  a = sorted_distinct(a);
  b = sorted_distinct(b);
  const std::vector<std::uint32_t> only_b = minus(b, a);
  ASSERT_FALSE(only_b.empty());

  path_arena arena;
  arena.add(view.flatten(other_));
  arena.resolve(cache);

  const hour_stamp h = hour_stamp::from_civil({2020, 7, 9}, 20);
  // B's slots hold hour h - 1; then only A is prefilled for h.
  cache.prefill(h + (-1), b);
  cache.prefill(h, a);
  for (const link_index l : path_links(other_)) {
    if (!std::binary_search(only_b.begin(), only_b.end(), cache.slot(l))) {
      continue;
    }
    for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
      EXPECT_EQ(cache.lookup(l, dir, h), nullptr);
      ASSERT_NE(cache.lookup(l, dir, h + (-1)), nullptr);
    }
  }
  // A batch sweep through B's slots takes the direct computation for
  // them and still matches the uncached evaluation bit for bit.
  path_metrics batched;
  view.evaluate_batch(arena, h, 0, 1, &batched);
  expect_same_metrics(batched, plain_view.evaluate(other_, h));
  expect_same_metrics(view.evaluate(other_, h),
                      plain_view.evaluate(other_, h));
}

TEST_F(ConditionCacheTest, OverlappingPrefillsFillSharedSlotsOnce) {
  obs::set_enabled(true);
  condition_cache cache(&net_);
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  cache.register_path(path_, &a);
  cache.register_path(back_, &b);
  cache.register_path(other_, &b);
  a = sorted_distinct(a);
  b = sorted_distinct(b);
  std::vector<std::uint32_t> both;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(both));
  ASSERT_LT(both.size(), a.size() + b.size());  // the sets overlap

  const hour_stamp h = hour_stamp::from_civil({2020, 8, 2}, 9);
  const std::uint64_t before = prefill_links_total();
  cache.prefill(h, a);
  cache.prefill(h, b);
  EXPECT_EQ(prefill_links_total() - before, both.size());
  // Everything is stamped for h now: a full prefill fills nothing, the
  // next hour refills every slot once.
  cache.prefill(h);
  EXPECT_EQ(prefill_links_total() - before, both.size());
  cache.prefill(h + 1);
  EXPECT_EQ(prefill_links_total() - before,
            both.size() + cache.registered_count());
  obs::set_enabled(false);
}

// --- the day-deep ring --------------------------------------------------
// Each slot keeps kRingHours hours, so campaigns replayed one after the
// other over the same day find each other's fills; the stamp of the
// entry read still decides every hit.

TEST_F(ConditionCacheTest, DayOfHoursStaysStampedSoRefillsAreFree) {
  obs::set_enabled(true);
  condition_cache cache(&net_);
  std::vector<std::uint32_t> a;
  cache.register_path(path_, &a);
  a = sorted_distinct(a);
  ASSERT_EQ(condition_cache::kRingHours, 24);

  const hour_stamp h = hour_stamp::from_civil({2020, 6, 20}, 7);
  const std::uint64_t before = prefill_links_total();
  for (int k = 0; k < condition_cache::kRingHours; ++k) cache.prefill(h + k, a);
  EXPECT_EQ(prefill_links_total() - before,
            condition_cache::kRingHours * a.size());
  // A second pass over the same day, as the next campaign replays it,
  // fills nothing, and every hour still serves its own conditions.
  for (int k = 0; k < condition_cache::kRingHours; ++k) cache.prefill(h + k, a);
  cache.prefill(h);
  EXPECT_EQ(prefill_links_total() - before,
            condition_cache::kRingHours * a.size());
  for (int k = 0; k < condition_cache::kRingHours; ++k) {
    for (const link_index l : path_links(path_)) {
      for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
        const link_condition* cached = cache.lookup(l, dir, h + k);
        ASSERT_NE(cached, nullptr);
        expect_same_condition(*cached, direct(l, dir, h + k));
      }
    }
  }
  obs::set_enabled(false);
}

TEST_F(ConditionCacheTest, HourADayLaterEvictsItsRingEntry) {
  obs::set_enabled(true);
  condition_cache cache(&net_);
  std::vector<std::uint32_t> a;
  cache.register_path(path_, &a);
  a = sorted_distinct(a);

  const hour_stamp h = hour_stamp::from_civil({2020, 6, 20}, 7);
  const hour_stamp next_day = h + condition_cache::kRingHours;
  cache.prefill(h, a);
  // Same ring position, another hour: a miss, never h's values.
  for (const std::uint32_t slot : a) {
    EXPECT_EQ(cache.slot_pair(slot, next_day), nullptr);
  }
  const std::uint64_t before = prefill_links_total();
  cache.prefill(next_day, a);
  EXPECT_EQ(prefill_links_total() - before, a.size());
  for (const link_index l : path_links(path_)) {
    for (const link_dir dir : {link_dir::a_to_b, link_dir::b_to_a}) {
      EXPECT_EQ(cache.lookup(l, dir, h), nullptr);
      const link_condition* cached = cache.lookup(l, dir, next_day);
      ASSERT_NE(cached, nullptr);
      expect_same_condition(*cached, direct(l, dir, next_day));
    }
  }
  // Back to h: refilled, since its entry now holds the next day.
  cache.prefill(h, a);
  EXPECT_EQ(prefill_links_total() - before, 2 * a.size());
  obs::set_enabled(false);
}

TEST_F(ConditionCacheTest, RingIndexIsFloorModAlsoBeforeTheEpoch) {
  EXPECT_EQ(condition_cache::ring_index(0), 0u);
  EXPECT_EQ(condition_cache::ring_index(23), 23u);
  EXPECT_EQ(condition_cache::ring_index(24), 0u);
  EXPECT_EQ(condition_cache::ring_index(-1), 23u);
  EXPECT_EQ(condition_cache::ring_index(-24), 0u);
  EXPECT_EQ(condition_cache::ring_index(-25), 23u);
  EXPECT_EQ(condition_cache::ring_index(INT64_MIN + 1),
            static_cast<std::size_t>(
                ((INT64_MIN + 1) % 24 + 24) % 24));

  condition_cache cache(&net_);
  cache.register_path(path_);
  const link_index l = path_links(path_).front();
  const hour_stamp before_epoch{-1};
  cache.prefill(before_epoch);
  const link_condition* cached =
      cache.lookup(l, link_dir::a_to_b, before_epoch);
  ASSERT_NE(cached, nullptr);
  expect_same_condition(*cached, direct(l, link_dir::a_to_b, before_epoch));
  // Hours 23 and -25 share the entry of hour -1 and miss.
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, hour_stamp{23}), nullptr);
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, hour_stamp{-25}), nullptr);
  cache.prefill(hour_stamp{-25});
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, before_epoch), nullptr);
  cached = cache.lookup(l, link_dir::a_to_b, hour_stamp{-25});
  ASSERT_NE(cached, nullptr);
  expect_same_condition(*cached,
                        direct(l, link_dir::a_to_b, hour_stamp{-25}));
}

TEST_F(ConditionCacheTest, MissesReturnNull) {
  condition_cache cache(&net_);
  cache.register_path(path_);
  const link_index l = path_links(path_).front();
  const hour_stamp t = hour_stamp::from_civil({2020, 6, 1}, 12);

  // Before any prefill.
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, t), nullptr);

  cache.prefill(t);
  EXPECT_NE(cache.lookup(l, link_dir::a_to_b, t), nullptr);
  // Wrong hour.
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, t + 1), nullptr);

  // An unregistered link misses even at the prefilled hour.
  condition_cache empty(&net_);
  empty.prefill(t);
  EXPECT_EQ(empty.lookup(l, link_dir::a_to_b, t), nullptr);
}

TEST_F(ConditionCacheTest, RegistrationIsIdempotent) {
  condition_cache cache(&net_);
  cache.register_path(path_);
  const std::size_t count = cache.registered_count();
  cache.register_path(path_);
  for (const link_index l : path_links(path_)) cache.register_link(l);
  EXPECT_EQ(cache.registered_count(), count);
}

TEST_F(ConditionCacheTest, RegistrationAfterPrefillInvalidatesEpoch) {
  condition_cache cache(&net_);
  cache.register_path(path_);
  const hour_stamp t = hour_stamp::from_civil({2020, 6, 1}, 12);
  cache.prefill(t);

  // Growing the registered set must not let the old epoch serve a table
  // with unfilled slots: find any link not yet registered and add it.
  std::size_t grew = 0;
  for (std::uint32_t i = 0;
       i < net_.topo->link_count() && grew == 0; ++i) {
    const std::size_t before = cache.registered_count();
    cache.register_link(link_index{i});
    grew = cache.registered_count() - before;
  }
  ASSERT_EQ(grew, 1u);  // the small internet has links off this path
  const link_index l = path_links(path_).front();
  EXPECT_EQ(cache.lookup(l, link_dir::a_to_b, t), nullptr);
  cache.prefill(t);
  EXPECT_NE(cache.lookup(l, link_dir::a_to_b, t), nullptr);
}

TEST_F(ConditionCacheTest, ViewEvaluateIdenticalWithAndWithoutCache) {
  network_view cached_view(&net_);
  network_view plain_view(&net_);
  cached_view.link_cache().register_path(path_);
  cached_view.link_cache().register_path(back_);

  for (int h = 0; h < 48; ++h) {
    const hour_stamp t = hour_stamp::from_civil({2020, 9, 5}, 0) + h;
    cached_view.link_cache().prefill(t);
    expect_same_metrics(cached_view.evaluate(path_, t),
                        plain_view.evaluate(path_, t));
    expect_same_metrics(cached_view.evaluate(back_, t),
                        plain_view.evaluate(back_, t));
    EXPECT_EQ(cached_view.episode_on_path(path_, t),
              plain_view.episode_on_path(path_, t));
    for (std::size_t r = 0; r < path_.routers.size(); ++r) {
      EXPECT_EQ(cached_view.delay_to_router(path_, r, t).value,
                plain_view.delay_to_router(path_, r, t).value);
    }
  }
}

TEST_F(ConditionCacheTest, FlatEvaluateIdenticalToRouteEvaluate) {
  network_view view(&net_);
  const flat_path flat = view.flatten(path_);
  EXPECT_EQ(flat.hops.size(), path_links(path_).size());

  for (int h = 0; h < 48; ++h) {
    const hour_stamp t = hour_stamp::from_civil({2020, 10, 10}, 0) + h;
    // Uncached and cached hours both take the flat fast path.
    expect_same_metrics(view.evaluate(flat, t), view.evaluate(path_, t));
    view.link_cache().register_path(path_);
    view.link_cache().prefill(t);
    expect_same_metrics(view.evaluate(flat, t), view.evaluate(path_, t));
  }
  EXPECT_EQ(view.base_rtt(path_).value, flat.base_rtt.value);
}

}  // namespace
}  // namespace clasp
