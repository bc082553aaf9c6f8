// Day-deep, hour-stamped cache of link conditions for the campaign
// replay hot loop.
//
// link_load_model::condition() is a pure function of
// (profile, link, dir, hour), but it costs transcendental math (Box-Muller
// log/sqrt/cos for the hour noise, exp, plus the episode hash draws) and
// the campaign replay re-evaluates it for every hop of every session's two
// paths — even though cloud-WAN, interconnect and transit-backbone links
// are shared by hundreds of sessions in the same region. This cache
// memoizes conditions for a registered set of links. Every link slot has
// a ring of kRingHours entries, one simulated day, and the entry for hour
// h sits at floor-mod(h, kRingHours). An entry holds the slot's two
// link_conditions [a_to_b, b_to_a] and its own stamp: the hour it was
// filled for.
//
// The ring is a day deep because replay is campaign-major: day by day,
// each campaign's 24 hours in turn. A slot that two campaigns share is
// filled by the first campaign to reach an hour, and the next campaign
// finds its whole day still stamped. On paper_6region (six regions, seed
// 1) that is 840 fills per simulated hour, one per distinct slot; a ring
// one hour deep refilled shared slots for every campaign, 1,277 fills.
//
// Usage contract (what keeps replay deterministic AND data-race free):
//  * register_link / register_path run at deployment time, before any
//    worker exists. Registration is idempotent; adding a slot drops the
//    ring, so every entry is unstamped again. The ring is allocated at
//    its final size by the next prefill, not grown slot by slot.
//  * prefill(at, slots) fills the listed slots' entries for one hour,
//    skipping entries already stamped for `at`; prefill(at) does the same
//    over every registered slot. Several campaigns share one cache (one
//    per network_view), and each prefills only the slots its own
//    sessions' paths cross. Prefill is called by a replay coordinator at
//    the top of a simulated hour, while no worker is evaluating
//    (optionally fanning the fills out across an idle thread_pool —
//    entries are disjoint, so scheduling cannot change any value). A fill
//    for hour h overwrites the entry that held h - kRingHours.
//  * lookup() is read-only and lock-free; workers call it concurrently
//    during the hour. It checks the stamp of the entry it reads: a miss
//    (unregistered link, or an entry not stamped for the requested hour)
//    returns nullptr and the caller falls back to the direct computation
//    — which yields bit-identical values, because every stamped entry
//    holds exactly condition()'s outputs for its hour. No call order can
//    therefore serve another hour's value.
//
// The prefill-then-read phase split means no entry is ever written while
// a reader is live; the thread_pool's batch join publishes the writes to
// every worker (see DESIGN.md, "Hour-epoch link-condition caching").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netsim/generator.hpp"
#include "netsim/routing.hpp"
#include "obs/metrics.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

namespace clasp {

namespace detail {
// Per-thread hit/miss tally for the global cache counter family. Plain
// fields with constant initialization: the per-evaluation cost is two TLS
// adds and a compare, with the sharded-counter publish amortized over
// kCacheTallyFlushLookups lookups. All condition_cache instances resolve
// the same registry counters, so one process-wide tally is sound.
struct cache_tally {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
};
inline thread_local cache_tally t_cache_tally;
inline constexpr std::uint64_t kCacheTallyFlushLookups = 4096;
}  // namespace detail

class condition_cache {
 public:
  // Sentinel for "link has no table slot" (unregistered). Public so batch
  // evaluators can pre-resolve link -> slot once and test against it.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit condition_cache(const internet* net);

  // Add a link to the registered set (idempotent) and return its slot.
  // Coordinator-only; must not race with lookup() or prefill().
  std::uint32_t register_link(link_index l);
  // Register every link crossing of a path (access + transit hops). When
  // `slots` is non-null, each crossing's slot is appended to it.
  void register_path(const route_path& path,
                     std::vector<std::uint32_t>* slots = nullptr);

  std::size_t registered_count() const { return links_.size(); }

  // Hours of one slot's ring: one simulated day.
  static constexpr std::int64_t kRingHours = 24;

  // Fill both directions of each listed slot for hour `at`, skipping
  // slots whose entry is already stamped for `at` (so a slot shared by
  // several callers is computed once per hour). Every slot must be below
  // registered_count(). Coordinator-only, with no concurrent readers.
  // When `pool` is non-null the fills fan out across it (one index per
  // slot; entries are disjoint, values schedule-independent).
  void prefill(hour_stamp at, std::span<const std::uint32_t> slots,
               thread_pool* pool = nullptr);
  // The same over every registered slot.
  void prefill(hour_stamp at, thread_pool* pool = nullptr) {
    prefill(at, all_slots_, pool);
  }

  // The cached condition of (l, dir) at `at`, or nullptr when the link is
  // unregistered or its ring entry for `at` holds another hour (or none).
  // Safe to call from many threads between prefills.
  const link_condition* lookup(link_index l, link_dir dir,
                               hour_stamp at) const {
    const std::uint32_t s = slot(l);
    if (s == kNoSlot) return nullptr;
    const link_condition* pair = slot_pair(s, at);
    return pair == nullptr ? nullptr
                           : pair + (dir == link_dir::a_to_b ? 0 : 1);
  }

  // The table slot assigned to `l`, or kNoSlot when unregistered. Slots
  // are stable once assigned (register_link only appends), so a batch
  // evaluator can resolve its paths once and reuse the indices for the
  // lifetime of the cache.
  std::uint32_t slot(link_index l) const {
    return l.value < slot_of_.size() ? slot_of_[l.value] : kNoSlot;
  }

  // The two conditions [a_to_b, b_to_a] of `slot` at `at`, or nullptr
  // when the slot's ring entry for `at` holds another hour. The check
  // lookup() performs, minus the link -> slot step: a batch sweep that
  // resolved its hops to slots calls this once per hop.
  const link_condition* slot_pair(std::uint32_t slot, hour_stamp at) const {
    if (slot >= ring_slots_) return nullptr;  // ring not allocated yet
    const std::int64_t hour = at.hours_since_epoch();
    const entry& e = ring_[ring_index(hour) * ring_slots_ + slot];
    return e.stamp == hour ? e.dirs : nullptr;
  }

  // floor-mod(hour, kRingHours): the ring position of `hour`, also for
  // hours before the epoch.
  static std::size_t ring_index(std::int64_t hour) {
    const std::int64_t r = hour % kRingHours;
    return static_cast<std::size_t>(r < 0 ? r + kRingHours : r);
  }

  // Batched hit/miss accounting. lookup() itself stays metric-free so the
  // per-hop cost is untouched; callers tally locally per evaluation and
  // publish once (network_view::evaluate does this per path). The publish
  // lands in a thread-local tally, pushed to the sharded counters every
  // few thousand lookups; a residual below the threshold can linger per
  // thread, which the >90%-hit-ratio consumers tolerate by design.
  void note_lookups(std::uint64_t hits, std::uint64_t misses) const {
    if (!obs::enabled()) return;
    detail::cache_tally& t = detail::t_cache_tally;
    t.hits += hits;
    t.misses += misses;
    if (t.hits + t.misses >= detail::kCacheTallyFlushLookups) {
      hits_->add(t.hits);
      misses_->add(t.misses);
      t = {};
    }
  }

 private:
  // Static link attributes captured at registration, so the hourly
  // prefill walks a contiguous array instead of chasing topology entries.
  struct registered_link {
    link_index link;
    std::uint32_t load_profile{0};
    mbps capacity;
    link_kind kind{link_kind::backbone};
  };

  // Stamp of an entry that holds no hour's data.
  static constexpr std::int64_t kUnstamped = INT64_MIN;

  // One slot's conditions for one hour.
  struct entry {
    link_condition dirs[2];  // [a_to_b, b_to_a]
    std::int64_t stamp{kUnstamped};  // the hour they hold
  };

  void fill_entry(std::uint32_t slot, hour_stamp at);

  const internet* net_;
  std::vector<std::uint32_t> slot_of_;  // link.value -> slot or kNoSlot
  std::vector<registered_link> links_;  // slot -> link + static attributes
  // kRingHours x ring_slots_ entries, hour-major: the entries of one hour
  // are contiguous, so an hour's prefill and sweep touch one block.
  // Empty (ring_slots_ == 0) until the first prefill after registration.
  std::vector<entry> ring_;
  std::size_t ring_slots_{0};
  std::vector<std::uint32_t> all_slots_;  // 0 .. registered_count() - 1
  std::vector<std::uint32_t> pending_;    // prefill scratch: slots to fill

  // Registry handles, resolved once at construction (stable pointers).
  obs::counter* const hits_;
  obs::counter* const misses_;
  obs::counter* const prefills_;
  obs::counter* const prefill_links_;
};

}  // namespace clasp
