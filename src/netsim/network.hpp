// Instantaneous evaluation of a path against the load model.
//
// network_view is the read-side facade the measurement tools use: given a
// route_path and an hour, it walks every link crossing, asks the load
// model for that link direction's condition, and aggregates RTT
// (propagation + bidirectional queueing), data-direction loss and the
// bottleneck available bandwidth.
//
// Two complementary fast paths serve the campaign replay hot loop:
//  * an hour-epoch condition_cache owned by the view: once a replay
//    coordinator has prefilled a link's slot for an hour, every
//    link_state / evaluate call crossing that link becomes a table lookup
//    instead of recomputing the load model's transcendental math (the
//    prober and every other view client reuse the same cached hour for
//    free);
//  * flat_path: a route_path flattened at session-construction time into
//    a contiguous hop array with the static per-hop terms (propagation
//    RTT, capacity, profile, kind) and the propagation-only RTT
//    precomputed, removing the optional-access branches and link_at
//    indirections from the per-test inner loop.
// Both are bit-identical to the plain route_path walk: the cache stores
// exactly condition()'s outputs and the flat walk performs the same
// floating-point operations in the same order.
#pragma once

#include <memory>
#include <vector>

#include "netsim/condition_cache.hpp"
#include "netsim/generator.hpp"
#include "netsim/routing.hpp"

namespace clasp {

// Aggregated condition of one path at one hour.
struct path_metrics {
  millis base_rtt;     // propagation-only round trip
  millis rtt;          // round trip including queueing delay both ways
  double loss{0.0};    // cumulative data-direction loss probability
  mbps bottleneck;     // minimum available bandwidth along the path
  link_index bottleneck_link;
  double bottleneck_util{0.0};  // utilization of the bottleneck link
  bool episode{false};          // a planted episode was active on the path
};

// One link crossing of a flattened path with its static terms hoisted out
// of the inner loop.
struct flat_hop {
  link_index link;
  link_dir dir;                // data direction
  link_kind kind{link_kind::backbone};
  std::uint32_t load_profile{0};
  mbps capacity;
  millis prop_rtt;             // propagation * 2 (both directions)
};

// A route_path flattened for repeated evaluation (see file comment).
struct flat_path {
  std::vector<flat_hop> hops;  // src access + transit + dst access
  millis base_rtt;             // full propagation-only RTT incl. router cost
  millis router_cost_rtt;      // 2 * 0.08 ms * router count
};

// Structure-of-arrays twin of a set of flat_paths: every path's hops are
// concatenated into one shared hop arena addressed by a CSR offsets array,
// with the per-path static terms (base RTT, router cost) in parallel
// arrays. A per-hour sweep over all paths then walks memory linearly
// instead of chasing one std::vector per session.
//
// Lifetime rules: add() every path at deployment time, then resolve()
// once against the view's condition_cache (slots are stable once
// assigned, so resolution survives later prefills; links registered with
// the cache *after* resolve() simply stay on the compute fallback). The
// arena is immutable afterwards and safe to share across reader threads.
class path_arena {
 public:
  // "Hop has no resolved condition-table entry" sentinel; such hops fall
  // back to the direct load-model computation (bit-identical by contract).
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};

  // Append a path; returns its index. Paths are evaluated in add() order.
  std::size_t add(const flat_path& path);

  // Map each hop to 2*slot + dir_bit, its cache slot and direction (or
  // kUnresolved). Coordinator-only; idempotent.
  void resolve(const condition_cache& cache);

  std::size_t size() const { return offsets_.size() - 1; }
  std::size_t hop_count() const { return hops_.size(); }

 private:
  friend class network_view;
  std::vector<flat_hop> hops_;          // all paths' hops, concatenated
  std::vector<std::uint32_t> cond_;     // per hop: table index or kUnresolved
  std::vector<std::uint32_t> offsets_{0};  // path i = [offsets_[i], offsets_[i+1])
  std::vector<millis> base_rtt_;           // per path
  std::vector<millis> router_cost_rtt_;    // per path
};

class hour_link_memo;

class network_view {
 public:
  explicit network_view(const internet* net);

  // Condition of one link direction at one hour (cache lookup when the
  // link's slot is stamped for the hour; direct computation else).
  link_condition link_state(link_index l, link_dir dir, hour_stamp at) const;

  // Aggregate over every hop of a path. With a memo (which must be for
  // `at`), link states come from it; the result is the same either way.
  path_metrics evaluate(const route_path& path, hour_stamp at,
                        hour_link_memo* memo = nullptr) const;

  // Flatten a path once; evaluate(flat, at) then walks a contiguous hop
  // array. Bit-identical to evaluate(path, at).
  flat_path flatten(const route_path& path) const;
  path_metrics evaluate(const flat_path& path, hour_stamp at) const;

  // Batched evaluation: compute metrics for arena paths
  // [begin_path, end_path) at hour `at`, writing out[p] for each absolute
  // path index p. Each hop whose condition-table entry resolved reads the
  // table directly once its slot's stamp matches `at` (no link -> slot
  // lookup); unresolved hops and slots not stamped for `at` fall back to
  // the load model. Bit-identical to evaluate(flat_path) per path — same
  // floating-point operations in the same order. Disjoint [begin, end)
  // ranges may run on different threads between prefills.
  void evaluate_batch(const path_arena& arena, hour_stamp at,
                      std::size_t begin_path, std::size_t end_path,
                      path_metrics* out) const;

  // Propagation-only round-trip time (no load model; used for latency
  // floor assertions and 5th-percentile sanity checks).
  millis base_rtt(const route_path& path) const;

  // Cumulative one-way delay from the source to every router of the
  // path, in one walk (traceroute per-hop RTT support; includes
  // queueing): out[i] is the delay to routers[i]. Each hop adds its
  // propagation plus its data-direction queueing delay, and router i
  // adds 0.08 ms * (i + 1). `memo`, when given, must be for `at`.
  void router_delays(const route_path& path, hour_stamp at,
                     std::vector<millis>& out,
                     hour_link_memo* memo = nullptr) const;
  // router_delays(path, at)[router_i]; throws for an index past the path.
  millis delay_to_router(const route_path& path, std::size_t router_i,
                         hour_stamp at) const;

  // True when a planted episode is active on any hop (ground truth).
  bool episode_on_path(const route_path& path, hour_stamp at) const;

  // The hour-epoch condition cache shared by every client of this view.
  // Campaign runners register their sessions' links at deploy() time and,
  // at the top of each replayed hour, prefill the slots their own
  // sessions cross; see condition_cache.hpp for the coordinator-only
  // write contract.
  condition_cache& link_cache() const { return *cache_; }

  const internet& net() const { return *net_; }

 private:
  template <typename Fn>
  void for_each_hop(const route_path& path, Fn&& fn) const;
  // Throws unless `memo` is null or memoizes this view at `at`.
  void check_memo(const hour_link_memo* memo, hour_stamp at) const;
  // memo->state when a memo is given, link_state otherwise.
  link_condition state_of(link_index l, link_dir dir, hour_stamp at,
                          hour_link_memo* memo) const;

  const internet* net_;
  std::unique_ptr<condition_cache> cache_;
};

// Link conditions of one hour, memoized for a burst of probes at that
// hour. A topology selection's pilot scan and server traceroutes cross
// the same few thousand links tens of thousands of times at one hour.
// Each (link, direction) is read from network_view::link_state on first
// use, so every value is link_state's own, and link state is a pure
// function of (link, direction, hour). Not thread-safe: its owner keeps
// it for one run and shares it with no other thread.
//
// The table is dense over every link of the topology (entry 2 * link +
// direction bit) and lives in an anonymous mapping of its own: pages are
// zero until first written, so only the pages a run touches become
// resident, and unmapping returns all of them. A heap table freed after
// each selection left the six-region replay's peak RSS 4-9 MB higher,
// through the allocator's fragmentation and mmap-threshold rules.
class hour_link_memo {
 public:
  hour_link_memo(const network_view* view, hour_stamp at);
  ~hour_link_memo();
  hour_link_memo(const hour_link_memo&) = delete;
  hour_link_memo& operator=(const hour_link_memo&) = delete;

  // True when this memo holds `view`'s link states for hour `at`.
  bool serves(const network_view* view, hour_stamp at) const {
    return view == view_ && at == at_;
  }
  const link_condition& state(link_index l, link_dir dir);

 private:
  const network_view* view_;
  hour_stamp at_;
  std::size_t entries_{0};
  // One mapping: entries_ conditions, then entries_ filled flags.
  void* pages_{nullptr};
  std::size_t bytes_{0};
  link_condition* conds_{nullptr};
  unsigned char* filled_{nullptr};
};

}  // namespace clasp
