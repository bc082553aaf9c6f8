// Longitudinal measurement campaign orchestration (§3.2).
//
// A campaign binds a region, a network tier and a server list. Deployment
// sizes the VM fleet so every server gets one test per hour: a throughput
// test takes up to 120 s, plus a 20-minute traceroute budget and 5 minutes
// for the upload to the storage bucket, so one VM runs at most 17 tests
// per hour. Servers are assigned to VMs round-robin across availability
// zones; each hour every VM shuffles its server order (cron-interference
// mitigation), runs its tests, appends a paris-traceroute, compresses the
// raw artifacts into the region bucket, and the billing meter advances.
//
// Replay is parallel and deterministic: each simulated hour fans the
// per-VM test loops out across a worker pool. Every (VM slot, hour) owns
// a counter-based RNG stream derived from the campaign seed, so the draws
// a VM sees never depend on scheduling; workers accumulate their results
// (TSDB points, someta summary, billing charges, artifact uploads) into a
// thread-local staging buffer, and the coordinating thread merges the
// buffers in VM-slot order. Results are bit-identical for any worker
// count, including 1 (see DESIGN.md, "Concurrency model & determinism").
//
// Results land in the time-series store under metrics
//   download_mbps, upload_mbps, latency_ms, download_loss, upload_loss,
//   gt_episode (planted ground truth, for detector validation)
// tagged with {campaign, region, tier, server, network, city}. The six
// series of every session are interned once at deploy() time; the hot
// loop appends through integer series refs. With fault injection enabled
// (campaign_config::faults) a seventh series, test_status, records every
// session-hour's test_outcome, and campaign_runner::health() summarizes
// completeness, retries and downtime per server.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clasp/checkpoint.hpp"
#include "cloud/gcp.hpp"
#include "cloud/someta.hpp"
#include "netsim/faults.hpp"
#include "netsim/network.hpp"
#include "obs/metrics.hpp"
#include "speedtest/registry.hpp"
#include "speedtest/webtest.hpp"
#include "tsdb/tsdb.hpp"
#include "util/thread_pool.hpp"

namespace clasp {

class vantage_swarm;

struct campaign_config {
  std::string region;
  service_tier tier{service_tier::premium};
  std::string label{"topology"};  // tsdb "campaign" tag
  hour_range window{topology_campaign_window()};
  unsigned tests_per_vm_hour{17};
  speed_test_config test{};
  // Fraction of a test's transferred volume persisted as compressed
  // artifacts (header-only pcap + someta metadata).
  double artifact_fraction{0.005};
  // Worker-pool concurrency for replay: 1 runs serially on the calling
  // thread, 0 means hardware_concurrency. Any value produces identical
  // results.
  unsigned workers{1};
  // Deterministic fault injection (server churn, transient test
  // failures, VM preemption, upload failures). Disabled by default;
  // disabled output is byte-identical to a faults-free build, and
  // enabled output is byte-identical for any worker count (the schedule
  // comes from dedicated counter-based streams — see netsim/faults.hpp).
  fault_config faults{};
  // Durability (see DESIGN.md, "Durability & crash recovery"). When
  // checkpoint_dir is non-empty, run() publishes a checkpoint every
  // checkpoint_every_hours simulated hours (a manifest plus a small
  // ledger, or a full TSDB snapshot + campaign state at geometrically
  // spaced bases). A killed campaign resumes via resume(dir), which
  // re-executes the hours since the last base, and produces output
  // byte-identical to an uninterrupted run. Empty checkpoint_dir
  // disables durability entirely (zero overhead).
  std::string checkpoint_dir;
  // Checkpoint cadence in simulated hours; must be >= 1 (the config
  // loader rejects 0). Hours run after the last checkpoint run again
  // after a kill.
  unsigned checkpoint_every_hours{24};
  // Observability heartbeat cadence in simulated hours; 0 disables the
  // line. With obs enabled and a cadence N, run_hour logs one INFO line
  // every N hours (cursor, tests done/failed/retried, cache hit ratio,
  // checkpoint age) through util/log. Purely observational:
  // output stays byte-identical for any cadence.
  unsigned heartbeat_every_hours{0};
};

// Post-campaign operational report: how complete each server's series is
// and what the substrate's failures cost. Per-server completeness counts
// only completed tests, so it matches the injected outage/churn schedule
// exactly (completed + failed + down + withdrawn + skipped covers every
// scheduled hour).
struct campaign_health {
  struct server_entry {
    std::size_t server_id{0};
    std::size_t scheduled_hours{0};  // hours in the campaign window
    std::size_t completed{0};        // tests that produced metrics
    std::size_t failed{0};           // transient failures, retries exhausted
    std::size_t retries{0};          // extra attempts beyond each first
    std::size_t down_hours{0};       // hours the hosting VM was down
    std::size_t withdrawn_hours{0};  // hours after the server withdrew
    std::size_t skipped_hours{0};    // starved of a slot by retries

    double completeness() const {
      return scheduled_hours == 0
                 ? 0.0
                 : static_cast<double>(completed) /
                       static_cast<double>(scheduled_hours);
    }
  };

  std::vector<server_entry> servers;
  std::size_t window_hours{0};
  std::size_t total_retries{0};
  std::size_t failed_tests{0};
  std::size_t upload_failures{0};    // artifact hours lost
  std::size_t withdrawn_servers{0};  // servers churned out by the plan
  std::size_t vm_redeploys{0};       // preemption windows recovered from
  std::size_t vm_downtime_hours{0};  // summed across the fleet

  double mean_completeness() const;
  // Servers below the completeness floor (the analysis pipeline's
  // exclusion list); returns server ids.
  std::vector<std::size_t> low_completeness_servers(
      double min_completeness) const;
};

class campaign_runner {
 public:
  campaign_runner(gcp_cloud* cloud, const network_view* view,
                  const server_registry* registry, tsdb* store);

  // Create the VM fleet and the per-server sessions. Must be called once.
  // Returns the number of VMs deployed.
  std::size_t deploy(const campaign_config& config,
                     const std::vector<std::size_t>& server_ids);

  // Drives one hour at cursor() to completion (the cursor must advance).
  // run()/run_until() default to run_hour; the shard coordinator passes
  // its collect-and-commit barrier instead.
  using hour_step = std::function<void(hour_stamp)>;

  // Run every remaining hour in the window (from cursor(), which resume()
  // may have advanced), then bill the accumulated bucket volume (once —
  // a resumed-after-complete run never double-bills). With a
  // checkpoint_dir configured, checkpoints are published on the cadence
  // and a final one after billing. Returns false when request_interrupt()
  // stopped the run early (after checkpointing, if durable); true when
  // the window completed.
  bool run(const hour_step& step = {});

  // Run hours [cursor(), stop) through `step` (run_hour when empty) with
  // the durability cadence: a first-hour anchor checkpoint when none has
  // been published or resumed yet, the interrupt check before every hour
  // and a checkpoint every checkpoint_every_hours. Returns false when
  // interrupted before reaching `stop`.
  bool run_until(hour_stamp stop, const hour_step& step = {});

  // Run one hour of the campaign: stage all VMs (in parallel when the
  // campaign was configured with workers != 1), then begin_hour and the
  // merge in slot order. Accepts any hour; run_until checks the cursor.
  void run_hour(hour_stamp at);

  // Coordinator-only fault-plan hour events, run after staging (which
  // never reads what they change) and before the merge: servers
  // withdrawing at `at` are retired from the churn registry, VMs whose
  // maintenance window starts/ends at `at` are preempted/redeployed.
  // No-op when faults are disabled.
  void begin_hour(hour_stamp at);

  // Batched evaluation of the hour's path conditions (coordinator-only,
  // after the cache prefill and before any staging worker starts): one
  // linear sweep over the session-path arena computes every session's
  // download/upload path_metrics for `at`, fanned out in fixed-size
  // blocks across `pool` (serial when null — block boundaries cannot
  // change values, the outputs are per-path). stage_vm_hour_into reads
  // the precomputed metrics and throws state_error for any other hour.
  // Any prefill of the hour — the campaign-scoped one run_hour performs,
  // a full view().link_cache().prefill(at), or none at all — then
  // evaluate_hour, then staging and slot-order commits, is byte-identical
  // to run_hour: the cache stores exactly what the load model computes,
  // and hops whose slots were not prefilled for `at` take the direct
  // computation.
  void evaluate_hour(hour_stamp at, thread_pool* pool = nullptr);

  // The distinct condition-cache slots this campaign's session paths
  // cross, ascending. Collected once at deploy(); the slots the hour-top
  // prefill refills.
  const std::vector<std::uint32_t>& cache_slots() const {
    return cache_slots_;
  }

  // Registry to retire churned servers from (so withdrawn servers vanish
  // from later crawls and re-selections). Optional; staging never reads
  // it — the fault plan is the source of truth for the campaign itself.
  void set_churn_registry(server_registry* registry) {
    churn_registry_ = registry;
  }

  // Pre-test swarm whose ledgers (account month quota, per-probe credits)
  // ride along in this campaign's checkpoints, so a resumed campaign
  // cannot double-spend or silently reset its pre-test probe budget.
  // Optional; the campaign itself never probes through it.
  void set_pretest_swarm(vantage_swarm* swarm) { pretest_swarm_ = swarm; }

  // --- staged execution (the advanced API behind run_hour) ---
  // Everything one VM produces in one hour, accumulated off-thread and
  // merged by the coordinator.
  struct staged_point {
    series_ref ref;
    double value{0.0};
  };
  // What happened to one session's test slot this hour (drives the
  // test_status series and the campaign_health tallies).
  struct staged_outcome {
    std::uint32_t session{0};  // index into sessions_
    test_outcome outcome{test_outcome::ok};
    std::uint8_t attempts{0};  // slots consumed (0 when none ran)
  };
  struct vm_hour_staging {
    hour_stamp at;                             // the staged hour
    std::vector<staged_point> points;          // six per completed test
    std::size_t saturated_tests{0};            // someta: CPU-saturated tests
    double peak_cpu{0.0};                      // someta: highest CPU use
    std::vector<staged_outcome> outcomes;      // one per assigned session
    charge_sheet charges;                      // VM-hour + egress + upload
    std::size_t tests_run{0};
    std::size_t tests_missed{0};
    bool upload_failed{false};                 // artifact put injected away
  };
  // Stage one VM's hour into `out`, clearing it first but keeping its
  // buffers, so an hour-stepping driver can reuse one staging slot per
  // task across the whole window. Const and thread-safe: touches only
  // immutable deployment state, the hour's evaluate_hour sweep and a
  // stream RNG derived from (label, region, vm_slot, hour). Throws
  // state_error unless evaluate_hour(at) was the last sweep.
  void stage_vm_hour_into(std::size_t vm_slot, hour_stamp at,
                          vm_hour_staging& out) const;
  // Merge one staged VM-hour: TSDB appends, someta summary, billing.
  // Coordinator thread only; call in ascending vm_slot order.
  void commit_vm_hour(std::size_t vm_slot, vm_hour_staging&& staged);

  // --- distributed replay support (src/dist/) ---
  // Stage one hour of the VM slots [slot_begin, slot_end) into `out`
  // (resized to the slot count), entirely on the calling thread: the
  // hour's prepare step with no pool, then serial staging. Never touches
  // the worker pool, so it is safe in a fork()ed worker process whose
  // pool threads did not survive the fork. Byte-identical to the same
  // slots staged by run_hour.
  void stage_shard_hour(hour_stamp at, std::size_t slot_begin,
                        std::size_t slot_end,
                        std::vector<vm_hour_staging>& out);
  // Commit one complete hour group staged elsewhere (shard workers)
  // through run_hour's own commit step: begin_hour, every slot in
  // ascending order, then close the hour. Because the records come from
  // other processes, `group` is checked first: it must hold vm_count()
  // records, slot v at index v, all staged for `at` == cursor(). Moves
  // out of the records, not the vector.
  void commit_hour_group(hour_stamp at, std::vector<vm_hour_staging>&& group);
  // Shard record codec, the dist wire format for one staged (VM, hour):
  // the coordinator decodes exactly what a worker encoded. (The names
  // date from when the same records also filled a write-ahead log.)
  // decode throws invalid_argument_error on a malformed payload (bad
  // framing, a count larger than the bytes left, or a slot, session,
  // outcome, VM id or point series that does not belong to this
  // campaign) and returns the record's vm_slot.
  std::string encode_wal_record(std::size_t vm_slot,
                                const vm_hour_staging& staged) const;
  std::size_t decode_wal_record(std::string_view payload,
                                vm_hour_staging& out) const;
  // The campaign identity hash (seed, label, region, window, fleet
  // shape, fault schedule). Shard workers present it in their hello so a
  // coordinator never merges records from a differently-configured
  // world; also what checkpoint resume verifies.
  std::uint64_t fingerprint() const;

  // State peeks for hour-stepped drivers that reproduce run_until's
  // durability cadence (first-hour anchor checkpoint, final storage bill)
  // without reaching into private members. wal_open() is true once this
  // runner has published or resumed a checkpoint in its checkpoint_dir.
  bool wal_open() const { return published_.has_value(); }
  bool storage_billed() const { return storage_billed_; }
  // Storage billed monthly on the accumulated bucket volume (run() calls
  // this after the window; hour-stepped drivers call it themselves).
  void charge_monthly_storage();

  // Failure injection: take one VM slot down for [begin, end). While down
  // the VM runs no tests (its servers simply have gaps, as with real
  // preemptions) and accrues no VM-hour charges. May be called multiple
  // times per slot. Windows travel in every checkpoint, so a resumed
  // run sees the windows injected before its checkpoint.
  void inject_vm_outage(std::size_t vm_slot, hour_range outage);

  // Tests that were skipped because their VM was down.
  std::size_t tests_missed() const { return tests_missed_; }

  // The deterministic fault schedule (empty plan when faults are off).
  const fault_plan& faults() const { return plan_; }
  // Per-server completeness, retry counts and downtime accumulated so
  // far (callable mid-window; run() leaves the full-window report).
  campaign_health health() const;

  const campaign_config& config() const { return config_; }
  std::size_t session_count() const { return sessions_.size(); }
  std::size_t vm_count() const { return vms_.size(); }
  std::size_t tests_run() const { return tests_run_; }
  // Effective replay concurrency (1 when serial).
  unsigned workers() const { return pool_ ? pool_->concurrency() : 1; }

  // someta-style resource metadata recorded on each VM (§3.2).
  const someta_recorder& metadata(std::size_t vm_slot) const {
    return someta_.at(vm_slot);
  }

  // --- durability (implemented in checkpoint.cpp) ---
  // Publish a checkpoint of the campaign at cursor(): a versioned
  // directory <dir>/ckpt-<hour> with a CRC-checked manifest, made visible
  // by an atomic rename and a CURRENT pointer update — a crash
  // mid-checkpoint leaves the previous checkpoint intact. In the
  // configured checkpoint_dir after the anchor, the publish writes only
  // the manifest and the small ledger, building on the last base, until
  // the hours since that base exceed the hours it covers; then it writes
  // a new base in full (TSDB snapshot + campaign/cloud state). The
  // anchor publish and any other `dir` always write a full base. In
  // checkpoint_dir, checkpoints the new manifest does not name are
  // garbage-collected (see checkpoint.hpp).
  void checkpoint(const std::string& dir);
  // Restore from the latest checkpoint under `dir`: its base, then the
  // hours from the base to its cursor re-executed through run_hour (with
  // the outage windows of its ledger), then its ledger. Requires a
  // deployed runner whose fingerprint (seed, window, fleet shape, fault
  // config) matches the checkpoint; throws state_error on a mismatch or
  // a missing base and invalid_argument_error on a corrupt manifest,
  // snapshot or state.
  // Returns false when `dir` holds no checkpoint (caller starts fresh).
  // On success `dir` becomes the campaign's checkpoint_dir and cursor()
  // points at the next hour to run.
  bool resume(const std::string& dir);
  // Ask a running run()/run_until() to stop at the next hour boundary
  // (safe from a signal handler; the runner checkpoints before
  // returning when durable).
  void request_interrupt() { interrupt_.store(true, std::memory_order_relaxed); }
  // The next hour run()/run_until() will execute (window begin after
  // deploy; advanced by run_hour and by resume).
  hour_stamp cursor() const { return cursor_; }
  // True when a checkpoint_dir is configured.
  bool durable() const { return !config_.checkpoint_dir.empty(); }

 private:
  // Interned TSDB handles for one session's six metrics.
  struct session_series {
    series_ref download;
    series_ref upload;
    series_ref latency;
    series_ref download_loss;
    series_ref upload_loss;
    series_ref gt_episode;
    std::array<series_ref, 6> all() const {
      return {download,      upload,      latency,
              download_loss, upload_loss, gt_episode};
    }
  };

  // Per-session health counters, merged by commit_vm_hour in slot order
  // (so they are deterministic for any worker count).
  struct session_tally {
    std::size_t completed{0};
    std::size_t failed{0};
    std::size_t retries{0};
    std::size_t down_hours{0};
    std::size_t withdrawn_hours{0};
    std::size_t skipped_hours{0};
  };

  // The (vm_slot, hour) RNG stream: independent of scheduling and of
  // every other stream.
  rng vm_stream(std::size_t vm_slot, hour_stamp at) const;
  bool vm_down(std::size_t vm_slot, hour_stamp at) const;

  // Registry handles (obs/families.hpp), resolved once at deploy so
  // instrumentation sites are a branch plus a sharded add. The cache
  // hit/miss handles are the same process-wide counters condition_cache
  // feeds; the heartbeat reads them for its hit-ratio column.
  struct metric_handles {
    obs::counter* hours{nullptr};
    obs::counter* tests{nullptr};
    obs::counter* tests_failed{nullptr};
    obs::counter* test_retries{nullptr};
    obs::counter* tests_missed{nullptr};
    obs::counter* points{nullptr};
    obs::counter* upload_failures{nullptr};
    obs::counter* fault_preempts{nullptr};
    obs::counter* fault_redeploys{nullptr};
    obs::counter* fault_withdrawals{nullptr};
    obs::counter* fault_vm_down_hours{nullptr};
    obs::counter* fault_skipped{nullptr};
    obs::counter* cache_hits{nullptr};
    obs::counter* cache_misses{nullptr};
    obs::gauge* cursor_hours{nullptr};
    obs::gauge* window_hours{nullptr};
    obs::gauge* sessions{nullptr};
    obs::gauge* fleet_servers{nullptr};
    obs::gauge* fleet_vms{nullptr};
    obs::gauge* sessions_total{nullptr};
    obs::gauge* batch_groups{nullptr};
    obs::gauge* pool_workers{nullptr};
    obs::gauge* pool_batches{nullptr};
    obs::gauge* pool_tasks{nullptr};
    obs::gauge* pool_busy_seconds{nullptr};
    obs::gauge* pool_last_batch{nullptr};
    obs::gauge* pool_utilization{nullptr};
    obs::gauge* swarm_active{nullptr};
    obs::gauge* swarm_coverage{nullptr};
    obs::gauge* swarm_stale{nullptr};
    obs::counter* swarm_credits{nullptr};
    obs::gauge* dist_workers{nullptr};
    obs::counter* dist_failovers{nullptr};
    obs::histogram* hour_seconds{nullptr};
  };
  void resolve_metrics();

  // The one hour pipeline: run_hour runs prepare, stage and commit;
  // stage_shard_hour prepare and stage; commit_hour_group the commit.
  //  * prepare: refill this campaign's condition-cache slots for `at`,
  //    then evaluate_hour, both on exactly `pool` (serial when null);
  //  * stage: slots [begin, end) into `out[v - begin]`, on `pool` or
  //    serially when null;
  //  * commit: begin_hour, commit_vm_hour for every slot of `group` in
  //    ascending order, then close: advance the cursor past `at` and,
  //    when `started` was taken with obs on, publish the hour's metrics.
  using hour_clock = std::chrono::steady_clock;
  static hour_clock::time_point hour_started();
  void prepare_hour(hour_stamp at, thread_pool* pool);
  void stage_slots(hour_stamp at, std::size_t begin, std::size_t end,
                   thread_pool* pool, std::vector<vm_hour_staging>& out);
  void commit_staged(hour_stamp at, std::vector<vm_hour_staging>& group,
                     hour_clock::time_point started);
  void close_hour(hour_stamp at, hour_clock::time_point started);
  // Hour-close bookkeeping: counters/gauges, the hour-duration histogram
  // and (on the configured cadence) the heartbeat line. Only called when
  // obs is enabled.
  void publish_hour_metrics(double hour_seconds);
  void emit_heartbeat() const;
  // Sizes each session's six measurement series for the whole window, so
  // the store's value columns grow without doubling slack. test_status
  // is left to grow: it only exists under fault injection.
  void reserve_series();

  // Durability internals (checkpoint.cpp). Without `full`, ledger.bin:
  // the outage windows, the counters, the cloud and the swarm ledgers.
  // `full` is state.bin: the same with the health tallies and each VM's
  // someta summary (what re-executing hours rebuilds) after the counters.
  void save_state(binary_writer& out, bool full) const;
  void load_state(binary_reader& in, bool full);
  // The outage windows that open both files.
  void load_outages(binary_reader& in);

  gcp_cloud* cloud_;
  const network_view* view_;
  const server_registry* registry_;
  tsdb* store_;
  campaign_config config_;
  std::vector<gcp_cloud::vm_id> vms_;
  std::vector<someta_recorder> someta_;
  std::vector<speed_test_session> sessions_;
  // CSR layout of the VM -> session assignment: vms_[v]'s sessions are
  // vm_session_index_[vm_session_offsets_[v] .. vm_session_offsets_[v+1])
  // in ascending session order. One offsets array plus one flat index
  // array replaces the old vector-of-vectors, so an hour sweep over the
  // fleet touches two contiguous allocations instead of one per VM.
  std::vector<std::uint32_t> vm_session_offsets_;  // size vms_.size() + 1
  std::vector<std::uint32_t> vm_session_index_;    // size sessions_.size()
  // SoA twin of the sessions' flattened paths: path 2*i is sessions_[i]'s
  // download path, 2*i + 1 its upload path. Built and resolved against
  // the view's condition cache at deploy.
  path_arena arena_;
  // Sorted distinct condition-cache slots of the session paths (see
  // cache_slots()).
  std::vector<std::uint32_t> cache_slots_;
  // Per-path metrics of the last evaluate_hour() sweep, indexed like the
  // arena, and the hour they are for (staging checks before use).
  std::vector<path_metrics> hour_metrics_;
  std::optional<hour_stamp> swept_hour_;
  std::size_t batch_groups_{0};  // blocks of the last sweep (heartbeat)
  // series_refs_[i] = interned store handles for sessions_[i].
  std::vector<session_series> series_refs_;
  // True at the refs in series_refs_, the only series a point may name.
  std::vector<bool> point_series_;
  // test_status series per session; empty unless faults are enabled (so
  // the faults-off store is byte-identical to pre-fault builds).
  std::vector<series_ref> status_refs_;
  // session_withdraw_[i] = the plan's withdraw hour for sessions_[i].
  std::vector<std::optional<hour_stamp>> session_withdraw_;
  fault_plan plan_;
  std::vector<session_tally> tallies_;
  std::size_t upload_failures_{0};
  server_registry* churn_registry_{nullptr};
  vantage_swarm* pretest_swarm_{nullptr};
  std::uint64_t stream_seed_{0};  // hash of (net seed, label, region)
  std::string artifact_prefix_;   // "raw/<label>/", built once at deploy
  std::unique_ptr<thread_pool> pool_;  // null when workers == 1
  // Reused hourly staging slots (capacity survives across hours; commit
  // reads them in place and moves nothing out).
  std::vector<vm_hour_staging> staging_;
  std::size_t tests_run_{0};
  std::size_t tests_missed_{0};
  // Outage windows per VM slot, CSR like the session assignment: slot v's
  // windows are outage_windows_[outage_offsets_[v] .. outage_offsets_[v+1])
  // in insertion order (plan windows first, then manual injections).
  // Insertions shift the flat array — outages are rare, lookups hourly.
  std::vector<std::uint32_t> outage_offsets_;  // size vms_.size() + 1
  std::vector<hour_range> outage_windows_;
  bool deployed_{false};
  // --- durability state ---
  hour_stamp cursor_{hour_stamp{0}};  // next hour to run (set at deploy)
  bool storage_billed_{false};        // run() billed monthly storage
  std::atomic<bool> interrupt_{false};
  // The MANIFEST CURRENT names in checkpoint_dir, as this process last
  // published or resumed it.
  std::optional<checkpoint_info> published_;
  // The store's series and points as of that publish plus the points
  // committed since. A store holding anything else was also written by
  // another campaign, whose points re-executing this campaign's hours
  // cannot rebuild, so the next publish writes a full base.
  std::size_t published_store_series_{0};
  std::size_t expected_store_points_{0};
  // --- observability state ---
  metric_handles metrics_{};          // resolved at deploy
  std::int64_t last_checkpoint_hour_{-1};  // heartbeat ckpt age; -1 = none
};

}  // namespace clasp
