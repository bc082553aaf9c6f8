// Fault-tolerant distributed replay: one campaign sharded across forked
// worker processes must produce output byte-identical to a
// single-process run — TSDB contents, billing, bucket artifacts, someta
// and the health report — at every shard count, under fault injection,
// and across the whole kill-point sweep: workers dying at the barrier,
// mid-frame, hanging silently, shipping damaged frames or damaged
// records, or being SIGKILLed for real mid-run. Failover recovery is
// always exactly the in-flight hour (deterministic staging re-stages it
// bit-exact), so none of this is allowed to show in the output.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "clasp/checkpoint.hpp"
#include "clasp/platform.hpp"
#include "dist/coordinator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;
using dist::dist_config;
using dist::dist_report;
using dist::shard_coordinator;
using dist::worker_chaos;

platform_config tiny_config(const std::string& faults_preset,
                            std::size_t fleet_scale = 1,
                            const std::string& checkpoint_dir = "") {
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.seed = 777;
  cfg.internet.regional_isp_count = 120;
  cfg.internet.business_count = 150;
  cfg.internet.hosting_count = 80;
  cfg.internet.education_count = 30;
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.servers.us_server_target = 120;
  cfg.servers.global_server_target = 600;
  cfg.topology_budgets = {{"us-west1", 40}};
  cfg.fleet_scale = fleet_scale;
  cfg.campaign_faults = fault_config::preset(faults_preset);
  cfg.campaign_checkpoint_dir = checkpoint_dir;
  cfg.campaign_checkpoint_every_hours = 10;
  return cfg;
}

// 28 hours: two 10-hour checkpoint intervals plus a ragged tail.
hour_range window() {
  return {hour_stamp::from_civil({2020, 6, 1}, 0),
          hour_stamp::from_civil({2020, 6, 1}, 0) + 28};
}

const char* kMetrics[] = {"download_mbps", "upload_mbps", "latency_ms",
                          "download_loss", "upload_loss", "gt_episode",
                          "test_status"};

// Everything a campaign produces, flattened for exact comparison.
struct campaign_snapshot {
  std::string csv;
  cost_report costs;
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
  std::size_t tests_run{0};
  std::size_t tests_missed{0};
  std::vector<someta_summary> someta;
  campaign_health health;
};

campaign_snapshot snapshot_of(clasp_platform& p, campaign_runner& c) {
  campaign_snapshot snap;
  std::ostringstream csv;
  for (const char* metric : kMetrics) p.store().export_csv(csv, metric);
  snap.csv = csv.str();
  snap.costs = p.cloud().costs();
  const storage_bucket& bucket = p.cloud().bucket(c.config().region);
  snap.bucket_mb = bucket.total_megabytes();
  snap.bucket_objects = bucket.object_count();
  snap.tests_run = c.tests_run();
  snap.tests_missed = c.tests_missed();
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    snap.someta.push_back(c.metadata(v).summary());
  }
  snap.health = c.health();
  return snap;
}

void expect_identical(const campaign_snapshot& a, const campaign_snapshot& b) {
  ASSERT_FALSE(a.csv.empty());
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.costs.vm_usd, b.costs.vm_usd);
  EXPECT_EQ(a.costs.egress_usd, b.costs.egress_usd);
  EXPECT_EQ(a.costs.storage_usd, b.costs.storage_usd);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.tests_missed, b.tests_missed);
  ASSERT_EQ(a.someta.size(), b.someta.size());
  for (std::size_t v = 0; v < a.someta.size(); ++v) {
    EXPECT_EQ(a.someta[v].tests, b.someta[v].tests) << "vm " << v;
    EXPECT_EQ(a.someta[v].saturated, b.someta[v].saturated) << "vm " << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.someta[v].peak_cpu),
              std::bit_cast<std::uint64_t>(b.someta[v].peak_cpu))
        << "vm " << v;
  }
  EXPECT_EQ(a.health.window_hours, b.health.window_hours);
  EXPECT_EQ(a.health.total_retries, b.health.total_retries);
  EXPECT_EQ(a.health.failed_tests, b.health.failed_tests);
  EXPECT_EQ(a.health.upload_failures, b.health.upload_failures);
  EXPECT_EQ(a.health.withdrawn_servers, b.health.withdrawn_servers);
  EXPECT_EQ(a.health.vm_redeploys, b.health.vm_redeploys);
  EXPECT_EQ(a.health.vm_downtime_hours, b.health.vm_downtime_hours);
  ASSERT_EQ(a.health.servers.size(), b.health.servers.size());
  for (std::size_t i = 0; i < a.health.servers.size(); ++i) {
    const auto& sa = a.health.servers[i];
    const auto& sb = b.health.servers[i];
    EXPECT_EQ(sa.server_id, sb.server_id);
    EXPECT_EQ(sa.scheduled_hours, sb.scheduled_hours);
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.failed, sb.failed);
    EXPECT_EQ(sa.retries, sb.retries);
    EXPECT_EQ(sa.down_hours, sb.down_hours);
    EXPECT_EQ(sa.withdrawn_hours, sb.withdrawn_hours);
    EXPECT_EQ(sa.skipped_hours, sb.skipped_hours);
  }
}

// The single-process, durability-free reference per (preset, fleet
// scale) — built once; platform construction dominates this suite.
const campaign_snapshot& reference(const std::string& faults_preset,
                                   std::size_t fleet_scale = 1) {
  static std::map<std::string, campaign_snapshot>* memo =
      new std::map<std::string, campaign_snapshot>();
  const std::string key =
      faults_preset + ":" + std::to_string(fleet_scale);
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  clasp_platform p(tiny_config(faults_preset, fleet_scale));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.run());
  return memo->emplace(key, snapshot_of(p, c)).first->second;
}

// One distributed run: build the platform, deploy, run under `dc`,
// snapshot. `report` (optional) receives the coordinator's report.
campaign_snapshot run_distributed(const platform_config& cfg, dist_config dc,
                                  dist_report* report = nullptr) {
  clasp_platform p(cfg);
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  shard_coordinator coordinator(c, std::move(dc));
  EXPECT_TRUE(coordinator.run());
  if (report != nullptr) *report = coordinator.report();
  return snapshot_of(p, c);
}

fs::path test_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("clasp_dist_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CampaignDist, TwoShardsAreByteIdenticalToSingleProcess) {
  for (const char* preset : {"off", "low"}) {
    dist_config dc;
    dc.shards = 2;
    dist_report report;
    expect_identical(reference(preset),
                     run_distributed(tiny_config(preset), dc, &report));
    EXPECT_EQ(report.shards, 2u);
    EXPECT_EQ(report.hours, 28u);
    EXPECT_EQ(report.groups_merged, 2u * 28u);
    EXPECT_EQ(report.failovers, 0u);
    EXPECT_EQ(report.crc_rejects, 0u);
    EXPECT_GE(report.heartbeats, 28u);
  }
}

TEST(CampaignDist, FourShardsOverScaledFleetMatchSingleProcess) {
  // The base fleet is ~3 VMs; fleet_scale 2 gives every shard of four a
  // real slot range instead of silently clamping the interesting case.
  dist_config dc;
  dc.shards = 4;
  dist_report report;
  expect_identical(reference("low", 2),
                   run_distributed(tiny_config("low", 2), dc, &report));
  EXPECT_EQ(report.shards, 4u);
  EXPECT_EQ(report.groups_merged, 4u * 28u);
}

TEST(CampaignDist, ShardCountClampsToFleetSize) {
  clasp_platform p(tiny_config("off"));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  dist_config dc;
  dc.shards = 64;  // far more shards than VM slots
  shard_coordinator coordinator(c, dc);
  EXPECT_EQ(coordinator.shards(), c.vm_count());
  EXPECT_TRUE(coordinator.run());
  expect_identical(reference("off"), snapshot_of(p, c));
}

TEST(CampaignDist, WorkerDeathAtBarrierFailsOverInvisibly) {
  dist_config dc;
  dc.shards = 2;
  dc.chaos.resize(2);
  dc.chaos[0].exit_at_barrier = (window().begin_at + 5).hours_since_epoch();
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_GE(report.failovers, 1u);
  EXPECT_GE(report.respawns, 1u);
  EXPECT_EQ(report.recovery_hours, 1u);
  EXPECT_EQ(report.hours, 28u);
}

TEST(CampaignDist, TornGroupMidFrameFailsOverInvisibly) {
  // The worker dies halfway through writing its group frame: the
  // coordinator sees a torn stream (EOF mid-frame) and must respawn, and
  // the replacement's re-staged hour must be bit-identical.
  dist_config dc;
  dc.shards = 2;
  dc.chaos.resize(2);
  dc.chaos[1].exit_mid_group = (window().begin_at + 3).hours_since_epoch();
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_GE(report.failovers, 1u);
  EXPECT_GE(report.respawns, 1u);
}

TEST(CampaignDist, HungWorkerEarnsTimeoutsBackoffThenFailover) {
  // A wedged worker never closes its socket — only the heartbeat
  // deadline can catch it. The strike ladder (timeout, backoff-extended
  // deadlines, bounded retries) must end in failover, not a hang or a
  // coordinator crash.
  dist_config dc;
  dc.shards = 2;
  dc.heartbeat_timeout_ms = 150;
  dc.initial_backoff_ms = 20;
  dc.max_deadline_retries = 2;
  dc.chaos.resize(2);
  dc.chaos[0].hang_at_hour = (window().begin_at + 4).hours_since_epoch();
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_GE(report.failovers, 1u);
}

TEST(CampaignDist, DamagedFrameIsResentNotFatal) {
  // Frame CRC failure: the channel stays in sync, the coordinator
  // re-requests exactly one group, and the worker survives.
  dist_config dc;
  dc.shards = 2;
  dc.chaos.resize(2);
  dc.chaos[1].bad_crc_frame = (window().begin_at + 6).hours_since_epoch();
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_GE(report.crc_rejects, 1u);
  EXPECT_GE(report.resends, 1u);
  EXPECT_EQ(report.failovers, 0u);
}

TEST(CampaignDist, DamagedRecordInsideValidFrameIsResent) {
  // Payload damage before framing: the frame CRC passes, only the
  // per-record CRC in the protocol layer catches it. Same remedy as a
  // damaged frame — one resend, no failover.
  dist_config dc;
  dc.shards = 2;
  dc.chaos.resize(2);
  dc.chaos[0].corrupt_group = (window().begin_at + 2).hours_since_epoch();
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_GE(report.crc_rejects, 1u);
  EXPECT_GE(report.resends, 1u);
  EXPECT_EQ(report.failovers, 0u);
}

TEST(CampaignDist, RealSigkillMidRunFailsOverInvisibly) {
  // Not simulated chaos: an actual SIGKILL to a live worker process at
  // an hour barrier, delivered through the coordinator's test hook.
  bool killed = false;
  dist_config dc;
  dc.shards = 2;
  dc.on_barrier_for_testing = [&killed](shard_coordinator& co,
                                        hour_stamp at) {
    if (!killed &&
        at.hours_since_epoch() == (window().begin_at + 7).hours_since_epoch()) {
      killed = true;
      EXPECT_GT(co.worker_pid(0), 0);
      co.kill_worker(0);
    }
  };
  dist_report report;
  expect_identical(reference("low"),
                   run_distributed(tiny_config("low"), dc, &report));
  EXPECT_TRUE(killed);
  EXPECT_GE(report.failovers, 1u);
  EXPECT_GE(report.respawns, 1u);
}

TEST(CampaignDist, FailoverBudgetExhaustionAbortsTyped) {
  // A shard that cannot stay up is a bug, not weather: with a zero
  // failover budget the first death must abort the run with a typed
  // error instead of respawning forever.
  clasp_platform p(tiny_config("off"));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  dist_config dc;
  dc.shards = 2;
  dc.max_failovers_per_shard = 0;
  dc.chaos.resize(2);
  dc.chaos[0].exit_at_barrier = (window().begin_at + 1).hours_since_epoch();
  shard_coordinator coordinator(c, dc);
  EXPECT_THROW(coordinator.run(), state_error);
}

TEST(CampaignDist, DurableDistributedRunKilledAndResumedStaysIdentical) {
  // Cross-mode durability: a distributed run killed mid-window resumes
  // in a fresh process — and the resumed half runs distributed too. The
  // coordinator mirrors run_until's checkpoint cadence, so its
  // checkpoints are interchangeable with single-process ones.
  const fs::path root = test_dir();
  std::string ckpt_dir;
  {
    clasp_platform p(tiny_config("low", 1, root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    dist_config dc;
    dc.shards = 2;
    shard_coordinator coordinator(c, dc);
    EXPECT_TRUE(coordinator.run_until(window().begin_at + 15));
    ckpt_dir = c.config().checkpoint_dir;
    // Abandon the platform: same durable state as a coordinator SIGKILL
    // at this barrier.
  }
  ASSERT_TRUE(current_checkpoint(ckpt_dir).has_value());
  clasp_platform p(tiny_config("low", 1, root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.resume(ckpt_dir));
  dist_config dc;
  dc.shards = 2;
  shard_coordinator coordinator(c, dc);
  EXPECT_TRUE(coordinator.run());
  expect_identical(reference("low"), snapshot_of(p, c));
  fs::remove_all(root);
}

TEST(CampaignDist, DistMetricsAppearInPrometheusExposition) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  dist_config dc;
  dc.shards = 2;
  dc.chaos.resize(2);
  dc.chaos[0].exit_at_barrier = (window().begin_at + 3).hours_since_epoch();
  dist_report report;
  run_distributed(tiny_config("off"), dc, &report);
  EXPECT_GE(report.failovers, 1u);
  const std::string text = obs::to_prometheus();
  obs::set_enabled(was_enabled);
  for (const char* family :
       {"clasp_dist_workers", "clasp_dist_barrier_hour",
        "clasp_dist_groups_merged_total", "clasp_dist_records_total",
        "clasp_dist_heartbeats_total", "clasp_dist_failovers_total",
        "clasp_dist_respawns_total", "clasp_dist_barrier_seconds"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace clasp
