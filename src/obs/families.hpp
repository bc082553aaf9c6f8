// Canonical metric family names. Instrumentation sites and tests share
// these constants so the taxonomy stays typo-free; register_core_families
// creates all of them so an exposition always covers every family, even
// when a run never touches some subsystem.
#pragma once

namespace clasp::obs::family {

// Campaign replay (src/clasp/campaign.cpp).
inline constexpr const char* kCampaignHours = "clasp_campaign_hours_total";
inline constexpr const char* kCampaignTests = "clasp_campaign_tests_total";
inline constexpr const char* kCampaignTestsFailed =
    "clasp_campaign_tests_failed_total";
inline constexpr const char* kCampaignTestRetries =
    "clasp_campaign_test_retries_total";
inline constexpr const char* kCampaignTestsMissed =
    "clasp_campaign_tests_missed_total";
inline constexpr const char* kCampaignPoints = "clasp_campaign_points_total";
inline constexpr const char* kCampaignUploadFailures =
    "clasp_campaign_upload_failures_total";
inline constexpr const char* kCampaignCursorHours =
    "clasp_campaign_cursor_hours";
inline constexpr const char* kCampaignWindowHours =
    "clasp_campaign_window_hours";
inline constexpr const char* kCampaignSessions = "clasp_campaign_sessions";
inline constexpr const char* kCampaignHourSeconds =
    "clasp_campaign_hour_seconds";

// Fleet scale + batched evaluation (SoA fast path; see DESIGN.md,
// "Memory layout & batched evaluation").
inline constexpr const char* kFleetServers = "clasp_fleet_servers";
inline constexpr const char* kFleetVms = "clasp_fleet_vms";
inline constexpr const char* kSessionsTotal = "clasp_sessions_total";
inline constexpr const char* kBatchGroupsPerHour =
    "clasp_batch_groups_per_hour";

// Thread pool (published from util::thread_pool::stats() by the campaign
// coordinator; the pool itself stays obs-free to avoid a util->obs cycle).
inline constexpr const char* kPoolWorkers = "clasp_pool_workers";
inline constexpr const char* kPoolBatches = "clasp_pool_batches";
inline constexpr const char* kPoolTasks = "clasp_pool_tasks";
inline constexpr const char* kPoolBusySeconds = "clasp_pool_busy_seconds";
inline constexpr const char* kPoolLastBatchSize =
    "clasp_pool_last_batch_size";
inline constexpr const char* kPoolUtilization = "clasp_pool_utilization";

// Hour-epoch link-condition cache (src/netsim/condition_cache.cpp).
inline constexpr const char* kCacheHits = "clasp_cache_hits_total";
inline constexpr const char* kCacheMisses = "clasp_cache_misses_total";
inline constexpr const char* kCachePrefills = "clasp_cache_prefills_total";
inline constexpr const char* kCachePrefillLinks =
    "clasp_cache_prefill_links_total";

// TSDB (src/tsdb/).
inline constexpr const char* kTsdbSnapshots = "clasp_tsdb_snapshots_total";
inline constexpr const char* kTsdbSnapshotBytes =
    "clasp_tsdb_snapshot_bytes_total";
inline constexpr const char* kTsdbRestores = "clasp_tsdb_restores_total";
inline constexpr const char* kTsdbSnapshotSeconds =
    "clasp_tsdb_snapshot_seconds";

// Checkpoint/resume (src/clasp/checkpoint.cpp).
inline constexpr const char* kCheckpointPublishes =
    "clasp_checkpoint_publishes_total";
inline constexpr const char* kCheckpointGcRemoved =
    "clasp_checkpoint_gc_removed_total";
inline constexpr const char* kCheckpointResumes =
    "clasp_checkpoint_resumes_total";
inline constexpr const char* kCheckpointLastHour =
    "clasp_checkpoint_last_hour";
inline constexpr const char* kCheckpointPublishSeconds =
    "clasp_checkpoint_publish_seconds";
// Bytes publishes made durable: the files each one wrote (a base's
// snapshot and state, the ledger, the manifest). Deterministic for a
// given campaign and cadence.
inline constexpr const char* kCheckpointBytesWritten =
    "clasp_checkpoint_bytes_written_total";
// Full bases written in a campaign's own directory after its anchor:
// the hours since the last base outgrew the hours it covers (geometric
// bases), or another campaign wrote the shared store since the last
// publish.
inline constexpr const char* kCheckpointCompactions =
    "clasp_checkpoint_compactions_total";

// Fault injection: planned (from the deterministic schedule) vs observed
// (what the replay actually recorded).
inline constexpr const char* kFaultsPlannedWithdrawals =
    "clasp_faults_planned_withdrawals";
inline constexpr const char* kFaultsPlannedOutages =
    "clasp_faults_planned_outages";
inline constexpr const char* kFaultsPlannedOutageHours =
    "clasp_faults_planned_outage_hours";
inline constexpr const char* kFaultsPreempts = "clasp_faults_preempts_total";
inline constexpr const char* kFaultsRedeploys =
    "clasp_faults_redeploys_total";
inline constexpr const char* kFaultsWithdrawals =
    "clasp_faults_withdrawals_total";
inline constexpr const char* kFaultsVmDownHours =
    "clasp_faults_vm_down_hours_total";
inline constexpr const char* kFaultsSkippedTests =
    "clasp_faults_skipped_tests_total";

// Vantage swarm (src/clasp/swarm.cpp): community pre-test probe
// membership, coverage and credit spend. Gauges hold the latest pre-test
// round's view; counters accumulate across pre-tests.
inline constexpr const char* kSwarmProbes = "clasp_swarm_probes";
inline constexpr const char* kSwarmActiveProbes = "clasp_swarm_active_probes";
inline constexpr const char* kSwarmCoverageRatio =
    "clasp_swarm_coverage_ratio";
inline constexpr const char* kSwarmStaleTuples = "clasp_swarm_stale_tuples";
inline constexpr const char* kSwarmCreditsSpent =
    "clasp_swarm_credits_spent_total";
inline constexpr const char* kSwarmSubstitutions =
    "clasp_swarm_substitutions_total";
inline constexpr const char* kSwarmMissedRounds =
    "clasp_swarm_missed_rounds_total";
inline constexpr const char* kSwarmRateLimited =
    "clasp_swarm_rate_limited_total";

// Distributed replay (src/dist/): coordinator-side view of the shard
// fleet. Gauges track the live topology; counters accumulate protocol
// traffic and every robustness action (timeouts, CRC rejects, resends,
// failovers) so a chaos run is fully visible in one exposition.
inline constexpr const char* kDistWorkers = "clasp_dist_workers";
inline constexpr const char* kDistBarrierHour = "clasp_dist_barrier_hour";
inline constexpr const char* kDistGroupsMerged =
    "clasp_dist_groups_merged_total";
inline constexpr const char* kDistRecords = "clasp_dist_records_total";
inline constexpr const char* kDistHeartbeats = "clasp_dist_heartbeats_total";
inline constexpr const char* kDistTimeouts = "clasp_dist_timeouts_total";
inline constexpr const char* kDistResends = "clasp_dist_resends_total";
inline constexpr const char* kDistCrcRejects =
    "clasp_dist_crc_rejects_total";
inline constexpr const char* kDistFailovers = "clasp_dist_failovers_total";
inline constexpr const char* kDistRespawns = "clasp_dist_respawns_total";
inline constexpr const char* kDistBarrierSeconds =
    "clasp_dist_barrier_seconds";

// Campaign service daemon (src/svc/). Gauges mirror the registry's state
// counts plus the scheduler's residency; counters accumulate lifecycle
// events, quanta and control traffic. Per-campaign progress additionally
// appears as label-embedded gauge names,
//   clasp_svc_campaign_cursor_hours{tenant="...",campaign="N"},
// which the registry treats as ordinary names and the Prometheus
// exposition renders literally.
inline constexpr const char* kSvcQueued = "clasp_svc_queued";
inline constexpr const char* kSvcAdmitted = "clasp_svc_admitted";
inline constexpr const char* kSvcRunning = "clasp_svc_running";
inline constexpr const char* kSvcPaused = "clasp_svc_paused";
inline constexpr const char* kSvcResident = "clasp_svc_resident";
inline constexpr const char* kSvcReservedUnits = "clasp_svc_reserved_units";
inline constexpr const char* kSvcWorkerBudget = "clasp_svc_worker_budget";
inline constexpr const char* kSvcSubmissions = "clasp_svc_submissions_total";
inline constexpr const char* kSvcCompletions = "clasp_svc_completions_total";
inline constexpr const char* kSvcFailures = "clasp_svc_failures_total";
inline constexpr const char* kSvcCancellations =
    "clasp_svc_cancellations_total";
inline constexpr const char* kSvcPreemptions = "clasp_svc_preemptions_total";
inline constexpr const char* kSvcEvictions = "clasp_svc_evictions_total";
inline constexpr const char* kSvcQuanta = "clasp_svc_quanta_total";
inline constexpr const char* kSvcColdStarts = "clasp_svc_cold_starts_total";
inline constexpr const char* kSvcWarmResumes =
    "clasp_svc_warm_resumes_total";
inline constexpr const char* kSvcControlRequests =
    "clasp_svc_control_requests_total";
inline constexpr const char* kSvcDrains = "clasp_svc_drains_total";
inline constexpr const char* kSvcCampaignCursorHours =
    "clasp_svc_campaign_cursor_hours";

}  // namespace clasp::obs::family
