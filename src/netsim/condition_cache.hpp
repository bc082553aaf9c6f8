// Hour-stamped cache of link conditions for the campaign replay hot loop.
//
// link_load_model::condition() is a pure function of
// (profile, link, dir, hour), but it costs transcendental math (Box-Muller
// log/sqrt/cos for the hour noise, exp, plus the episode hash draws) and
// the campaign replay re-evaluates it for every hop of every session's two
// paths — even though cloud-WAN, interconnect and transit-backbone links
// are shared by hundreds of sessions in the same region. This cache
// memoizes conditions for a registered set of links: a dense 2 x links
// table of link_condition keyed by (link slot, dir), where every slot
// carries its own stamp — the hour its two entries were filled for.
//
// Usage contract (what keeps replay deterministic AND data-race free):
//  * register_link / register_path run at deployment time, before any
//    worker exists. Registration is idempotent; adding a slot clears
//    every stamp.
//  * prefill(at, slots) fills the listed slots for one hour, skipping
//    slots already stamped for `at`; prefill(at) does the same over every
//    registered slot. Several campaigns share one cache (one per
//    network_view), and each prefills only the slots its own sessions'
//    paths cross. Prefill is called by a replay coordinator at the top of
//    a simulated hour, while no worker is evaluating (optionally fanning
//    the fills out across an idle thread_pool — slots are disjoint, so
//    scheduling cannot change any value).
//  * lookup() is read-only and lock-free; workers call it concurrently
//    during the hour. It checks the stamp of the slot it reads: a miss
//    (unregistered link, or a slot not stamped for the requested hour)
//    returns nullptr and the caller falls back to the direct computation
//    — which yields bit-identical values, because every stamped slot holds
//    exactly condition()'s outputs for its hour. No call order can
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

  // Fill both directions of each listed slot for hour `at`, skipping
  // slots already stamped for `at` (so a slot shared by several callers
  // is computed once per hour). Every slot must be below
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
  // unregistered or its slot is not stamped for `at`. Safe to call from
  // many threads between prefills.
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

  // The two entries [a_to_b, b_to_a] of `slot`, or nullptr when the slot
  // is not stamped for `at`. The check lookup() performs, minus the
  // link -> slot step: a batch sweep that resolved its hops to slots
  // calls this once per hop.
  const link_condition* slot_pair(std::uint32_t slot, hour_stamp at) const {
    return stamp_[slot] == at.hours_since_epoch() ? &table_[2 * slot]
                                                  : nullptr;
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

  void fill_slot(std::size_t slot, hour_stamp at);

  // Stamp of a slot that holds no hour's data.
  static constexpr std::int64_t kUnstamped = INT64_MIN;

  const internet* net_;
  std::vector<std::uint32_t> slot_of_;  // link.value -> slot or kNoSlot
  std::vector<registered_link> links_;  // slot -> link + static attributes
  std::vector<link_condition> table_;   // 2 per slot: [a_to_b, b_to_a]
  std::vector<std::int64_t> stamp_;     // slot -> hour it holds, or kUnstamped
  std::vector<std::uint32_t> all_slots_;  // 0 .. registered_count() - 1
  std::vector<std::uint32_t> pending_;    // prefill scratch: slots to fill

  // Registry handles, resolved once at construction (stable pointers).
  obs::counter* const hits_;
  obs::counter* const misses_;
  obs::counter* const prefills_;
  obs::counter* const prefill_links_;
};

}  // namespace clasp
