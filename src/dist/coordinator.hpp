// Shard coordinator: fault-tolerant distributed campaign replay.
//
// One campaign, N worker processes. The coordinator partitions the VM
// fleet into contiguous slot ranges, forks one worker per shard, and
// advances the campaign one hour barrier at a time: every shard ships
// its hour's VM-hour record group over a framed channel, the coordinator
// assembles the full fleet group in slot order and commits it through
// campaign_runner::commit_hour_group — the same bytes, in the same
// order, as a single-process run_hour. Output is therefore
// byte-identical for any worker count, which is the contract every
// robustness decision below leans on.
//
// Failure handling, from least to most severe:
//   * damaged frame or record (CRC reject)  → re-request just that
//     group; deterministic staging makes the retry byte-identical.
//     Bounded by three re-requests per barrier, then treated as a worker
//     failure.
//   * silence past the heartbeat deadline   → bounded retries with
//     exponential backoff on the deadline, then failover.
//   * dead or wedged worker                 → failover: SIGKILL + reap +
//     respawn a replacement starting at the current barrier hour. The
//     replacement re-stages that hour bit-exact, so nothing committed is
//     ever redone and nothing pending is ever lost.
//
// The coordinator drives its barriers through the campaign's own
// run/run_until loop, so the durability cadence (first-hour anchor,
// checkpoint_every_hours, final storage bill + checkpoint) is the same
// code as a single-process run and `clasp_cli --shards N` runs are
// resumable exactly like single-process ones. Everything is observable as clasp_dist_* metric
// families plus a dist segment in the campaign heartbeat line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "clasp/campaign.hpp"
#include "dist/worker.hpp"

namespace clasp::dist {

struct dist_config {
  std::size_t shards{2};
  // A worker must show life (heartbeat, group, hello) at least this
  // often during a barrier, or it earns a timeout strike.
  int heartbeat_timeout_ms{2000};
  // After a strike, the deadline is extended by a backoff that doubles
  // per strike (initial_backoff_ms * 2^strike), up to
  // max_deadline_retries strikes; then the shard fails over.
  int initial_backoff_ms{50};
  int max_deadline_retries{3};
  // Respawns allowed per shard before the run aborts (a shard that
  // cannot stay up is a bug, not weather).
  int max_failovers_per_shard{4};
  // Chaos by shard index, applied to generation-0 workers only (a
  // failover replacement always behaves). Empty = no chaos.
  std::vector<worker_chaos> chaos;
  // Test hook: runs at the top of every hour barrier, before
  // collection. kill_worker from here exercises real SIGKILL failover.
  std::function<void(class shard_coordinator&, hour_stamp)>
      on_barrier_for_testing;
};

// What a distributed run did, for reports and bench assertions.
struct dist_report {
  std::size_t shards{0};
  std::size_t hours{0};           // hour barriers committed
  std::size_t groups_merged{0};   // shard groups folded into barriers
  std::size_t records_merged{0};  // per-(VM, hour) records committed
  std::size_t heartbeats{0};
  std::size_t timeouts{0};      // deadline strikes
  std::size_t resends{0};       // re-requests sent
  std::size_t crc_rejects{0};   // damaged frames/records refused
  std::size_t failovers{0};     // shards declared failed
  std::size_t respawns{0};      // replacement workers forked
  std::size_t recovery_hours{1};  // hours re-staged per failover (always
                                  // the in-flight barrier, never more)
};

class shard_coordinator {
 public:
  // Shard count is clamped to [1, campaign.vm_count()]: a shard must
  // own at least one VM slot. The campaign must be deployed.
  shard_coordinator(campaign_runner& campaign, dist_config config);
  ~shard_coordinator();
  shard_coordinator(const shard_coordinator&) = delete;
  shard_coordinator& operator=(const shard_coordinator&) = delete;

  // Distributed equivalents of campaign_runner::run / run_until. Return
  // false when interrupted (request_interrupt on the campaign), true on
  // completion. Workers live for the duration of one call.
  bool run();
  bool run_until(hour_stamp stop);

  const dist_report& report() const { return report_; }
  std::size_t shards() const { return config_.shards; }

  // Test/demo hooks: the worker process behind a shard, and a real
  // SIGKILL to it (the next barrier detects the death and fails over).
  pid_t worker_pid(std::uint32_t shard) const;
  void kill_worker(std::uint32_t shard);

 private:
  struct worker_slot {
    pid_t pid{-1};
    std::unique_ptr<fd_channel> channel;
    std::size_t slot_begin{0};
    std::size_t slot_end{0};
    int generation{0};  // respawns of this shard so far
    std::chrono::steady_clock::time_point deadline;
    int strikes{0};
    double backoff_ms{0};
    int resends{0};
    bool have_group{false};
    std::vector<std::string> records;
  };

  void spawn_shard(std::uint32_t shard, hour_stamp start, hour_stamp stop);
  void failover(std::uint32_t shard, hour_stamp at, hour_stamp stop);
  void collect_hour(hour_stamp at, hour_stamp stop);
  void arm_deadline(worker_slot& w);
  void reject_group(std::uint32_t shard, hour_stamp at, hour_stamp stop);
  void stop_all();
  // run()/run_until(): the campaign's loop with collect_hour as its step.
  bool drive(hour_stamp stop, bool whole_window);

  campaign_runner& campaign_;
  dist_config config_;
  std::vector<worker_slot> workers_;
  dist_report report_;
};

}  // namespace clasp::dist
