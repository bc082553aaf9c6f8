// Crash-consistent checkpoint/resume: a campaign killed at any hour
// boundary — or mid-hour, with a torn WAL tail — must resume in a fresh
// process and finish with output byte-identical to an uninterrupted run:
// TSDB contents, exported CSV, billing totals, bucket artifacts, someta
// records and the campaign_health report. The sweep crosses kill points
// (checkpoint boundary, mid-interval, torn/partial WAL, inside the seal
// protocol, base plus sealed segments) with worker counts {1, 2, 8} and
// fault presets off/low; the already-proven invariance across workers
// means each kill state needs only some of the combos, spread to cover
// them all. Malformed WAL records and damaged sealed segments are typed
// errors, never out-of-range writes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "clasp/checkpoint.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "tsdb/wal.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"
#include "util/log.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

platform_config tiny_config(unsigned workers, const std::string& faults_preset,
                            const std::string& checkpoint_dir = "",
                            unsigned every_hours = 10) {
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.seed = 777;
  // Shrink the substrate: this suite builds many platforms in sequence.
  cfg.internet.regional_isp_count = 120;
  cfg.internet.business_count = 150;
  cfg.internet.hosting_count = 80;
  cfg.internet.education_count = 30;
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.servers.us_server_target = 120;
  cfg.servers.global_server_target = 600;
  cfg.topology_budgets = {{"us-west1", 40}};
  cfg.campaign_workers = workers;
  cfg.campaign_faults = fault_config::preset(faults_preset);
  cfg.campaign_checkpoint_dir = checkpoint_dir;
  cfg.campaign_checkpoint_every_hours = every_hours;
  return cfg;
}

// 36 hours: several 10-hour checkpoint intervals plus a ragged tail.
hour_range window() {
  return {hour_stamp::from_civil({2020, 5, 1}, 0),
          hour_stamp::from_civil({2020, 5, 1}, 0) + 36};
}

const char* kMetrics[] = {"download_mbps", "upload_mbps", "latency_ms",
                          "download_loss", "upload_loss", "gt_episode",
                          "test_status"};

// Everything a campaign produces, flattened for exact comparison.
struct campaign_snapshot {
  std::string csv;  // export_csv of every metric, concatenated
  cost_report costs;
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
  std::size_t tests_run{0};
  std::size_t tests_missed{0};
  std::vector<std::vector<vm_metadata_sample>> someta;  // per VM slot
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
    snap.someta.push_back(c.metadata(v).samples());
  }
  snap.health = c.health();
  return snap;
}

void expect_identical(const campaign_snapshot& a, const campaign_snapshot& b) {
  // Exported CSV byte for byte covers every TSDB point and tag.
  ASSERT_FALSE(a.csv.empty());
  EXPECT_EQ(a.csv, b.csv);
  // Billing totals, bit for bit.
  EXPECT_EQ(a.costs.vm_usd, b.costs.vm_usd);
  EXPECT_EQ(a.costs.egress_usd, b.costs.egress_usd);
  EXPECT_EQ(a.costs.storage_usd, b.costs.storage_usd);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.tests_missed, b.tests_missed);
  ASSERT_EQ(a.someta.size(), b.someta.size());
  for (std::size_t v = 0; v < a.someta.size(); ++v) {
    ASSERT_EQ(a.someta[v].size(), b.someta[v].size());
    for (std::size_t j = 0; j < a.someta[v].size(); ++j) {
      EXPECT_EQ(a.someta[v][j].at, b.someta[v][j].at);
      EXPECT_EQ(a.someta[v][j].cpu_utilization, b.someta[v][j].cpu_utilization);
      EXPECT_EQ(a.someta[v][j].memory_gb, b.someta[v][j].memory_gb);
      EXPECT_EQ(a.someta[v][j].io_wait, b.someta[v][j].io_wait);
      EXPECT_EQ(a.someta[v][j].cpu_saturated, b.someta[v][j].cpu_saturated);
    }
  }
  // The campaign_health report, entry by entry.
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

// The uninterrupted, durability-free reference per fault preset (built
// once; platform construction dominates this suite's runtime).
const campaign_snapshot& reference(const std::string& faults_preset) {
  static std::map<std::string, campaign_snapshot>* memo =
      new std::map<std::string, campaign_snapshot>();
  const auto it = memo->find(faults_preset);
  if (it != memo->end()) return it->second;
  clasp_platform p(tiny_config(1, faults_preset));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.run());
  return memo->emplace(faults_preset, snapshot_of(p, c)).first->second;
}

// Fresh per-test checkpoint root.
fs::path test_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("clasp_resume_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The MANIFEST CURRENT names under a campaign's checkpoint directory.
checkpoint_info current_info(const std::string& dir) {
  const auto current = current_checkpoint(dir);
  EXPECT_TRUE(current.has_value());
  return read_checkpoint_info(current.value_or(dir));
}

// Run the durable campaign up to `kill_at_hour` past the window begin and
// abandon the process state (the platform destructs), leaving the
// checkpoint directory exactly as a SIGKILL at that hour boundary would.
// Returns the campaign's checkpoint directory.
std::string run_and_kill(const std::string& root, unsigned workers,
                         const std::string& faults_preset, int kill_at_hour) {
  clasp_platform p(tiny_config(workers, faults_preset, root));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.run_until(window().begin_at + kill_at_hour));
  return c.config().checkpoint_dir;
}

// Fresh process: rebuild the platform deterministically, resume from the
// checkpoint directory, finish the window and snapshot the output.
campaign_snapshot resume_and_finish(const std::string& root, unsigned workers,
                                    const std::string& faults_preset,
                                    unsigned every_hours = 10,
                                    bool expect_resumed = true) {
  clasp_platform p(tiny_config(workers, faults_preset, root, every_hours));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_EQ(c.resume(c.config().checkpoint_dir), expect_resumed);
  EXPECT_TRUE(c.run());
  return snapshot_of(p, c);
}

TEST(CampaignResume, DurableRunIsByteIdenticalToPlainRun) {
  // Checkpointing and WAL logging must never perturb the output — and a
  // durable run is comparable across worker counts like any other.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    clasp_platform p(tiny_config(2, preset, root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_TRUE(c.durable());
    EXPECT_TRUE(c.run());
    expect_identical(reference(preset), snapshot_of(p, c));
    // The final checkpoint is published and points at the window end.
    const auto current = current_checkpoint(c.config().checkpoint_dir);
    ASSERT_TRUE(current.has_value());
    EXPECT_EQ(read_checkpoint_info(*current).cursor_hours,
              window().end_at.hours_since_epoch());
    fs::remove_all(root);
  }
}

TEST(CampaignResume, KillAtCheckpointBoundary) {
  // Hour 20 is a checkpoint multiple (every 10): the WAL is empty and
  // recovery is pure snapshot restore. Resume with a different worker
  // count than the killed run used.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    run_and_kill(root.string(), 2, preset, 20);
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 8, preset));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, KillMidInterval) {
  // Hour 25: snapshot at 20 plus five WAL-covered hours to replay.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    run_and_kill(root.string(), 2, preset, 25);
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 1, preset));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, RepeatedKillsAcrossTheWindow) {
  // Kill -> resume -> kill -> resume ... across hours that are neither
  // checkpoint multiples nor aligned with each other; serial and
  // parallel replay alternate across the legs.
  const fs::path root = test_dir();
  run_and_kill(root.string(), 1, "low", 7);
  {
    clasp_platform p(tiny_config(8, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.resume(c.config().checkpoint_dir));
    EXPECT_TRUE(c.run_until(window().begin_at + 23));
  }
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

TEST(CampaignResume, TornWalTailReRunsTheLostHour) {
  // Kill mid-hour: the WAL's last record is torn mid-frame. Recovery
  // drops the torn record and the now-partial hour group; those hours
  // re-run deterministically.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    const std::string dir = run_and_kill(root.string(), 2, preset, 25);
    const std::string wal_path = dir + "/wal.log";
    const wal_scan_result scan = scan_wal(wal_path);
    ASSERT_GE(scan.records.size(), 6u);  // 5 hours x >= 2 VMs
    // Tear three bytes into the final record's frame.
    fs::resize_file(wal_path, scan.record_end.back() - 3);
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 2, preset));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, PartialHourGroupIsDropped) {
  // Kill between two slot commits of the same hour: complete frames, but
  // not all of the hour's VM records made it. The whole hour re-runs.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 2, "low", 25);
  const std::string wal_path = dir + "/wal.log";
  const wal_scan_result scan = scan_wal(wal_path);
  ASSERT_GT(scan.records.size(), 1u);
  // Keep all but the last record: the final hour's group loses one slot.
  truncate_wal(wal_path, scan.record_end[scan.record_end.size() - 2]);
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

TEST(CampaignResume, StaleWalRecordsAreSkipped) {
  // Crash between checkpoint publish and WAL reset: the log still holds
  // records from hours the snapshot already covers. They are skipped.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 2, "low", 25);
  // Save the five WAL-covered hours (20..24).
  std::string stale;
  {
    std::ifstream in(dir + "/wal.log", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    stale = buf.str();
  }
  ASSERT_FALSE(stale.empty());
  // Advance the same directory to the hour-30 checkpoint (WAL reset),
  // then re-plant the stale records as if the reset never happened.
  {
    clasp_platform p(tiny_config(2, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.resume(dir));
    EXPECT_TRUE(c.run_until(window().begin_at + 30));
  }
  {
    std::ofstream out(dir + "/wal.log",
                      std::ios::binary | std::ios::trunc);
    out << stale;
  }
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

TEST(CampaignResume, InterruptCheckpointsAndResumeFinishes) {
  const fs::path root = test_dir();
  std::string dir;
  {
    clasp_platform p(tiny_config(2, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    dir = c.config().checkpoint_dir;
    c.request_interrupt();
    EXPECT_FALSE(c.run());  // stops at the first boundary, checkpointed
    EXPECT_TRUE(current_checkpoint(dir).has_value());
  }
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

TEST(CampaignResume, KillMidIntervalAtTenTimesFleetScale) {
  // The scaled fleet's CSR/arena state must round-trip the checkpoint
  // wire format: at 10x fleet_scale, kill mid-interval (snapshot at 20
  // plus WAL-covered hours) and finish byte-identically to an
  // uninterrupted 10x run — resuming with a different worker count than
  // the killed run used.
  campaign_snapshot ref;
  {
    platform_config cfg = tiny_config(2, "low");
    cfg.fleet_scale = 10;
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_TRUE(c.run());
    ref = snapshot_of(p, c);
  }
  const fs::path root = test_dir();
  {
    platform_config cfg = tiny_config(2, "low", root.string());
    cfg.fleet_scale = 10;
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_GT(c.session_count(), 300u);  // the fleet really is 10x
    EXPECT_TRUE(c.run_until(window().begin_at + 25));
  }
  {
    platform_config cfg = tiny_config(1, "low", root.string());
    cfg.fleet_scale = 10;
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.resume(c.config().checkpoint_dir));
    EXPECT_TRUE(c.run());
    expect_identical(ref, snapshot_of(p, c));
  }
  fs::remove_all(root);
}

TEST(CampaignResume, ResumeWithoutCheckpointReturnsFalse) {
  const fs::path root = test_dir();
  expect_identical(reference("off"),
                   resume_and_finish(root.string(), 1, "off", 10,
                                     /*expect_resumed=*/false));
  fs::remove_all(root);
}

TEST(CampaignResume, ResumeAfterCompletionIsANoOp) {
  // Resuming a finished campaign must not re-run hours or double-bill
  // the monthly storage charge.
  const fs::path root = test_dir();
  {
    clasp_platform p(tiny_config(2, "off", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_TRUE(c.run());
  }
  expect_identical(reference("off"),
                   resume_and_finish(root.string(), 2, "off"));
  fs::remove_all(root);
}

TEST(CampaignResume, ResumeAfterCompletionReadsTheRefreshedLedger) {
  // With a cadence that divides the window, the cadence publish and the
  // final one share an hour: the final publish only refreshes ledger.bin
  // (now carrying the storage bill), and resuming must see the bill.
  const fs::path root = test_dir();
  std::string dir;
  {
    clasp_platform p(tiny_config(1, "low", root.string(), 2));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    dir = c.config().checkpoint_dir;
    EXPECT_TRUE(c.run());
  }
  EXPECT_EQ(current_info(dir).cursor_hours,
            window().end_at.hours_since_epoch());
  EXPECT_FALSE(fs::exists(*current_checkpoint(dir) + "/ledger.bin.tmp"));
  {
    // The bill is in the resumed state itself, before run() could add it.
    clasp_platform p(tiny_config(2, "low", root.string(), 2));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.resume(dir));
    EXPECT_TRUE(c.storage_billed());
    EXPECT_GT(p.cloud().costs().storage_usd, 0.0);
    EXPECT_EQ(p.cloud().costs().storage_usd,
              reference("low").costs.storage_usd);
  }
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 8, "low", 2));
  fs::remove_all(root);
}

TEST(CampaignResume, FingerprintMismatchIsRejected) {
  const fs::path root = test_dir();
  run_and_kill(root.string(), 1, "low", 20);
  // Same directory, different fault schedule -> a different campaign.
  clasp_platform p(tiny_config(1, "off", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), state_error);
  fs::remove_all(root);
}

TEST(CampaignResume, CorruptCheckpointIsRejected) {
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "off", 20);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  // Flip one byte of the base's serialized state: the CRC frame must
  // catch it.
  const std::string state_path =
      (fs::path(dir) / read_checkpoint_info(*current).base_name() /
       "state.bin")
          .string();
  std::string bytes;
  {
    std::ifstream in(state_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream out(state_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  clasp_platform p(tiny_config(1, "off", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), invalid_argument_error);
  fs::remove_all(root);
}

TEST(CampaignResume, CheckpointPublishFailureQuarantinesAndKeepsCurrent) {
  // ENOSPC (simulated) mid-publish: the failed checkpoint must not
  // damage durable state — the old CURRENT stays valid, the partial
  // staging directory is quarantined, and the error is typed.
  const fs::path root = test_dir();
  std::string dir;
  {
    clasp_platform p(tiny_config(2, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.run_until(window().begin_at + 20));
    dir = c.config().checkpoint_dir;
    const auto before = current_checkpoint(dir);
    ASSERT_TRUE(before.has_value());
    set_checkpoint_write_failures_for_testing(1);
    EXPECT_THROW(c.run_until(window().begin_at + 30), storage_error);
    set_checkpoint_write_failures_for_testing(0);
    const auto after = current_checkpoint(dir);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*before, *after);
    EXPECT_EQ(read_checkpoint_info(*after).cursor_hours,
              (window().begin_at + 20).hours_since_epoch());
    bool quarantined = false;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string base = entry.path().filename().string();
      EXPECT_FALSE(base.ends_with(".staging")) << base;
      if (base.ends_with(".quarantine")) quarantined = true;
    }
    EXPECT_TRUE(quarantined);
  }
  // The surviving checkpoint (plus the WAL hours committed before the
  // failed publish) resumes and finishes byte-identically.
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

// Run with every_hours = 2 up to hour 33: a base plus several sealed
// segments, and one WAL-covered hour past the last publish.
std::string run_and_kill_with_segments(const std::string& root,
                                       unsigned workers,
                                       const std::string& faults_preset) {
  clasp_platform p(tiny_config(workers, faults_preset, root, 2));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.run_until(window().begin_at + 33));
  return c.config().checkpoint_dir;
}

TEST(CampaignResume, KillInsideTheSealProtocol) {
  // A kill after the segment link but before CURRENT flips leaves the
  // old checkpoint CURRENT with wal.log intact (the link is an orphan);
  // a kill after the flip but before wal.log is replaced leaves a log
  // whose hours the new checkpoint already covers. Both resume
  // byte-identically.
  struct leg {
    seal_kill_point point;
    const char* preset;
    unsigned killed_workers;
    unsigned resumed_workers;
  };
  for (const leg& l : {leg{seal_kill_point::after_segment_link, "off", 1, 8},
                       leg{seal_kill_point::after_segment_link, "low", 8, 2},
                       leg{seal_kill_point::after_current_flip, "off", 2, 1},
                       leg{seal_kill_point::after_current_flip, "low", 1, 8}}) {
    const fs::path root = test_dir();
    std::string dir;
    std::int64_t before = 0;
    {
      clasp_platform p(
          tiny_config(l.killed_workers, l.preset, root.string(), 2));
      campaign_runner& c = p.start_topology_campaign("us-west1", window());
      dir = c.config().checkpoint_dir;
      ASSERT_TRUE(c.run_until(window().begin_at + 20));
      // Publish by publish until one seals (compactions write a base).
      set_seal_kill_point_for_testing(l.point);
      bool killed = false;
      while (!killed && c.cursor() + 2 <= window().end_at) {
        before = current_info(dir).cursor_hours;
        try {
          c.run_until(c.cursor() + 2);
        } catch (const checkpoint_killed_for_testing& k) {
          EXPECT_EQ(k.point, l.point);
          killed = true;
        }
      }
      set_seal_kill_point_for_testing(seal_kill_point::none);
      ASSERT_TRUE(killed);
    }
    const checkpoint_info info = current_info(dir);
    if (l.point == seal_kill_point::after_segment_link) {
      EXPECT_EQ(info.cursor_hours, before);
      EXPECT_FALSE(scan_wal(dir + "/wal.log").records.empty());
    } else {
      EXPECT_EQ(info.cursor_hours, before + 2);
      ASSERT_FALSE(info.segments.empty());
      EXPECT_TRUE(fs::equivalent(dir + "/wal.log",
                                 dir + "/" + info.segments.back().file_name()));
    }
    expect_identical(reference(l.preset),
                     resume_and_finish(root.string(), l.resumed_workers,
                                       l.preset, 2));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, KillMidSwapOfARepublishedHourResumes) {
  // A fresh run in a reused directory publishes its anchor at an hour the
  // directory already holds. The new checkpoint replaces the old one in a
  // single directory swap: a kill right after it leaves CURRENT naming a
  // complete checkpoint (and the old one under the staging name, which
  // GC clears), never a missing directory.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "low", 5);
  const std::string name =
      "ckpt-" + std::to_string(window().begin_at.hours_since_epoch());
  ASSERT_TRUE(fs::exists(dir + "/" + name));
  {
    clasp_platform p(tiny_config(2, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    set_seal_kill_point_for_testing(seal_kill_point::after_directory_swap);
    bool killed = false;
    try {
      c.run_until(window().begin_at + 1);
    } catch (const checkpoint_killed_for_testing& k) {
      EXPECT_EQ(k.point, seal_kill_point::after_directory_swap);
      killed = true;
    }
    set_seal_kill_point_for_testing(seal_kill_point::none);
    ASSERT_TRUE(killed);
  }
  EXPECT_EQ(current_info(dir).cursor_hours,
            window().begin_at.hours_since_epoch());
  EXPECT_TRUE(fs::exists(dir + "/" + name + ".staging"));
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 8, "low"));
  EXPECT_FALSE(fs::exists(dir + "/" + name + ".staging"));
  fs::remove_all(root);
}

TEST(CampaignResume, FailedPublishKeepsLoggingAndFinishes) {
  // A publish that fails (ENOSPC, simulated) leaves the WAL logging the
  // hours since the previous publish, so the same process can carry on:
  // the next publish covers them, the run finishes byte-identically and
  // what it leaves on disk resumes to the same output.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    {
      clasp_platform p(tiny_config(2, preset, root.string(), 2));
      campaign_runner& c = p.start_topology_campaign("us-west1", window());
      ASSERT_TRUE(c.run_until(window().begin_at + 21));
      set_checkpoint_write_failures_for_testing(1);
      EXPECT_THROW(c.run_until(window().begin_at + 24), storage_error);
      set_checkpoint_write_failures_for_testing(0);
      EXPECT_EQ(current_info(c.config().checkpoint_dir).cursor_hours,
                (window().begin_at + 20).hours_since_epoch());
      EXPECT_TRUE(c.run());
      expect_identical(reference(preset), snapshot_of(p, c));
    }
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 8, preset, 2));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, BasePlusSealedSegmentsPlusTornTail) {
  // Restore the base, replay three or more sealed segments, load the
  // ledger, then replay the live tail with its last record torn.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    const std::string dir = run_and_kill_with_segments(
        root.string(), preset == std::string("off") ? 8 : 1, preset);
    const checkpoint_info info = current_info(dir);
    ASSERT_GE(info.segments.size(), 3u);
    // GC kept exactly what the manifest names.
    EXPECT_TRUE(fs::exists(fs::path(dir) / info.base_name() / "tsdb.snap"));
    std::size_t segment_files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename().string().starts_with("wal-")) {
        ++segment_files;
      }
    }
    EXPECT_EQ(segment_files, info.segments.size());
    const std::string wal_path = dir + "/wal.log";
    const wal_scan_result scan = scan_wal(wal_path);
    ASSERT_GE(scan.records.size(), 2u);
    fs::resize_file(wal_path, scan.record_end.back() - 3);
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 2, preset, 2));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, DamagedSealedSegmentIsCorruption) {
  // A sealed segment was complete when it was linked, so a tear, a
  // flipped bit or a whole missing hour in one is damage: resume refuses
  // it with corruption_error rather than re-running silently.
  enum class damage { torn, flipped, missing_hour };
  for (const damage d : {damage::torn, damage::flipped, damage::missing_hour}) {
    const fs::path root = test_dir();
    const std::string dir = run_and_kill_with_segments(root.string(), 2, "low");
    const checkpoint_info info = current_info(dir);
    ASSERT_FALSE(info.segments.empty());
    const std::string seg = dir + "/" + info.segments.front().file_name();
    const wal_scan_result scan = scan_wal(seg);
    ASSERT_GT(scan.records.size(), 2u);
    switch (d) {
      case damage::torn:
        fs::resize_file(seg, scan.record_end.back() - 3);
        break;
      case damage::flipped: {
        std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
        const std::streamoff at =
            static_cast<std::streamoff>(scan.record_end[0] + 8 + 2);
        f.seekg(at);
        const char byte = static_cast<char>(f.get());
        f.seekp(at);
        f.put(static_cast<char>(byte ^ 0x01));
        break;
      }
      case damage::missing_hour:
        // Cut at a frame boundary: every remaining frame is CRC-valid.
        truncate_wal(seg, scan.record_end[scan.record_end.size() / 2 - 1]);
        break;
    }
    clasp_platform p(tiny_config(2, "low", root.string(), 2));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_THROW(c.resume(c.config().checkpoint_dir), corruption_error);
    fs::remove_all(root);
  }
}

TEST(CampaignResume, PublishBytesFollowHoursExceptAtCompactions) {
  // The bytes a publish makes durable: a seal costs the hours since the
  // last publish (its segment plus a few-KB ledger and manifest), however
  // long the window already is; only compactions rewrite the past, and
  // geometric compaction keeps them logarithmic in the window.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  obs::counter& bytes = reg.get_counter(obs::family::kCheckpointBytesWritten);
  obs::counter& compactions =
      reg.get_counter(obs::family::kCheckpointCompactions);
  struct publish {
    std::uint64_t bytes;
    bool compaction;
  };
  const auto run = [&](unsigned every_hours) {
    const fs::path root = test_dir();
    clasp_platform p(tiny_config(1, "off", root.string(), every_hours));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    std::vector<publish> out;
    while (c.cursor() < window().end_at) {
      const std::uint64_t b0 = bytes.value();
      const std::uint64_t c0 = compactions.value();
      EXPECT_TRUE(c.run_until(c.cursor() + every_hours));
      out.push_back({bytes.value() - b0, compactions.value() != c0});
    }
    fs::remove_all(root);
    return out;
  };
  const std::vector<publish> hourly = run(1);
  const std::vector<publish> three_hourly = run(3);
  obs::set_enabled(was_enabled);
  // The first step also publishes the anchor.
  std::vector<std::uint64_t> seals_1, seals_3;
  std::size_t compactions_1 = 0;
  for (std::size_t i = 1; i < hourly.size(); ++i) {
    if (hourly[i].compaction) {
      ++compactions_1;
    } else {
      seals_1.push_back(hourly[i].bytes);
    }
  }
  for (std::size_t i = 1; i < three_hourly.size(); ++i) {
    if (!three_hourly[i].compaction) seals_3.push_back(three_hourly[i].bytes);
  }
  ASSERT_GE(seals_1.size(), 20u);
  ASSERT_GE(seals_3.size(), 5u);
  // 36 hourly publishes: a geometric schedule compacts about log2(36).
  EXPECT_GE(compactions_1, 2u);
  EXPECT_LE(compactions_1, 7u);
  const auto mean = [](const std::vector<std::uint64_t>& v) {
    double sum = 0;
    for (const std::uint64_t b : v) sum += static_cast<double>(b);
    return sum / static_cast<double>(v.size());
  };
  const double hour_bytes = mean(seals_1);
  // Three hours since the last publish cost three hours' bytes.
  EXPECT_GT(mean(seals_3), 2.5 * hour_bytes);
  EXPECT_LT(mean(seals_3), 3.5 * hour_bytes);
  // And a seal late in the window costs what an early one did.
  for (const std::uint64_t b : seals_1) {
    EXPECT_GT(static_cast<double>(b), 0.75 * hour_bytes);
    EXPECT_LT(static_cast<double>(b), 1.25 * hour_bytes);
  }
}

TEST(CampaignResume, SealedSegmentsReachGaugeAndHeartbeat) {
  // The operator sees how many segments a resume would replay: the
  // clasp_checkpoint_sealed_segments gauge and ckpt_segs= in the
  // heartbeat follow the CURRENT manifest.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::vector<std::string> beats;
  set_log_sink([&](log_level, std::string_view component,
                   std::string_view message) {
    if (component == "heartbeat") beats.emplace_back(message);
  });
  const log_level was_level = get_log_level();
  set_log_level(log_level::info);
  const fs::path root = test_dir();
  {
    platform_config cfg = tiny_config(1, "off", root.string(), 2);
    cfg.obs_heartbeat_every_hours = 1;
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.run_until(window().begin_at + 33));
    const std::size_t segments = current_info(c.config().checkpoint_dir)
                                     .segments.size();
    ASSERT_GE(segments, 3u);
    EXPECT_EQ(obs::metrics_registry::instance()
                  .get_gauge(obs::family::kCheckpointSealedSegments)
                  .value(),
              static_cast<double>(segments));
    ASSERT_FALSE(beats.empty());
    // Hour 33 closes after the hour-32 publish.
    EXPECT_NE(beats.back().find(" ckpt_segs=" + std::to_string(segments)),
              std::string::npos)
        << beats.back();
  }
  set_log_sink({});
  set_log_level(was_level);
  obs::set_enabled(was_enabled);
  fs::remove_all(root);
}

TEST(CampaignResume, VersionTwoCheckpointIsRejected) {
  // A checkpoint written before sealed segments existed names no base:
  // its version alone must refuse it, with a typed error.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "off", 20);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  binary_writer v2;
  v2.u32(0x4B434C43u);  // "CLCK"
  v2.u32(2);
  v2.u64(read_checkpoint_info(*current).fingerprint);
  v2.svarint(read_checkpoint_info(*current).cursor_hours);
  write_crc_file(*current + "/MANIFEST", v2.bytes());
  EXPECT_THROW(read_checkpoint_info(*current), invalid_argument_error);
  clasp_platform p(tiny_config(1, "off", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), invalid_argument_error);
  fs::remove_all(root);
}

// Two campaigns on one platform: one gcp_cloud and one store.
platform_config two_region_config(unsigned workers, const std::string& preset,
                                  const std::string& root) {
  platform_config cfg = tiny_config(workers, preset, root, 5);
  cfg.topology_budgets = {{"us-west1", 40}, {"us-west2", 30}};
  return cfg;
}

campaign_snapshot platform_snapshot(clasp_platform& p) {
  campaign_snapshot snap;
  std::ostringstream csv;
  for (const char* metric : kMetrics) p.store().export_csv(csv, metric);
  snap.csv = csv.str();
  snap.costs = p.cloud().costs();
  for (const char* region : {"us-west1", "us-west2"}) {
    snap.bucket_mb += p.cloud().bucket(region).total_megabytes();
    snap.bucket_objects += p.cloud().bucket(region).object_count();
  }
  return snap;
}

void expect_same_platform(const campaign_snapshot& ref,
                          const campaign_snapshot& got) {
  ASSERT_FALSE(ref.csv.empty());
  EXPECT_EQ(ref.csv, got.csv);
  EXPECT_EQ(ref.costs.vm_usd, got.costs.vm_usd);
  EXPECT_EQ(ref.costs.egress_usd, got.costs.egress_usd);
  EXPECT_EQ(ref.costs.storage_usd, got.costs.storage_usd);
  EXPECT_EQ(ref.bucket_mb, got.bucket_mb);
  EXPECT_EQ(ref.bucket_objects, got.bucket_objects);
}

TEST(CampaignResume, SharedCloudTwoCampaignsResumeMatchesUninterrupted) {
  // Two durable campaigns bill one gcp_cloud and write one store. The
  // second is killed mid-interval after sealing; a fresh platform resumes
  // both in the original order and must land on the uninterrupted costs
  // and store bytes. The ledger carries the platform-wide cloud state the
  // second campaign's segments cannot rebuild.
  for (const char* preset : {"off", "low"}) {
    campaign_snapshot ref;
    {
      clasp_platform p(two_region_config(2, preset, ""));
      EXPECT_TRUE(p.start_topology_campaign("us-west1", window()).run());
      EXPECT_TRUE(p.start_topology_campaign("us-west2", window()).run());
      ref = platform_snapshot(p);
    }
    const fs::path root = test_dir();
    std::string west2_dir;
    {
      clasp_platform p(two_region_config(1, preset, root.string()));
      EXPECT_TRUE(p.start_topology_campaign("us-west1", window()).run());
      campaign_runner& c = p.start_topology_campaign("us-west2", window());
      west2_dir = c.config().checkpoint_dir;
      EXPECT_TRUE(c.run_until(window().begin_at + 23));
    }
    EXPECT_FALSE(current_info(west2_dir).segments.empty());
    {
      clasp_platform p(two_region_config(8, preset, root.string()));
      campaign_runner& a = p.start_topology_campaign("us-west1", window());
      ASSERT_TRUE(a.resume(a.config().checkpoint_dir));
      EXPECT_TRUE(a.run());
      campaign_runner& b = p.start_topology_campaign("us-west2", window());
      ASSERT_TRUE(b.resume(b.config().checkpoint_dir));
      EXPECT_TRUE(b.run());
      expect_same_platform(ref, platform_snapshot(p));
    }
    fs::remove_all(root);
  }
}

TEST(CampaignResume, InterleavedCampaignsOnOneStoreResumeIdentically) {
  // us-west1 runs its first ten hours, us-west2 its first ten, us-west1
  // the rest, then us-west2 is killed at 23. us-west2's base predates
  // most of us-west1's points, so its next publish must notice the
  // foreign writes and write a full base instead of sealing; resuming
  // both (us-west2's checkpoint is the later one) restores every point.
  // Returns us-west2's runner, left at its tenth hour.
  const auto drive = [](clasp_platform& p) -> campaign_runner& {
    campaign_runner& a = p.start_topology_campaign("us-west1", window());
    campaign_runner& b = p.start_topology_campaign("us-west2", window());
    EXPECT_TRUE(a.run_until(window().begin_at + 10));
    EXPECT_TRUE(b.run_until(window().begin_at + 10));
    EXPECT_TRUE(a.run());
    return b;
  };
  campaign_snapshot ref;
  {
    clasp_platform p(two_region_config(1, "low", ""));
    EXPECT_TRUE(drive(p).run());
    ref = platform_snapshot(p);
  }
  const fs::path root = test_dir();
  {
    clasp_platform p(two_region_config(2, "low", root.string()));
    EXPECT_TRUE(drive(p).run_until(window().begin_at + 23));
  }
  {
    clasp_platform p(two_region_config(8, "low", root.string()));
    campaign_runner& a = p.start_topology_campaign("us-west1", window());
    campaign_runner& b = p.start_topology_campaign("us-west2", window());
    ASSERT_TRUE(a.resume(a.config().checkpoint_dir));
    ASSERT_TRUE(b.resume(b.config().checkpoint_dir));
    EXPECT_TRUE(a.run());
    EXPECT_TRUE(b.run());
    expect_same_platform(ref, platform_snapshot(p));
  }
  fs::remove_all(root);
}

TEST(CampaignResume, CorruptWalInteriorRefusesResume) {
  // A CRC mismatch on a fully-present frame is rewrite damage, not a
  // crash tear: resume must refuse the log with a typed error instead
  // of silently truncating and re-running.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 2, "low", 25);
  const std::string wal_path = dir + "/wal.log";
  const wal_scan_result scan = scan_wal(wal_path);
  ASSERT_GT(scan.records.size(), 2u);
  {
    // Flip one byte two bytes into the second record's payload; every
    // byte of the frame is still on disk.
    std::fstream f(wal_path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at =
        static_cast<std::streamoff>(scan.record_end[0] + 8 + 2);
    f.seekg(at);
    const char byte = static_cast<char>(f.get());
    f.seekp(at);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  clasp_platform p(tiny_config(2, "low", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), corruption_error);
  fs::remove_all(root);
}

TEST(CampaignResume, MalformedWalRecordIsTypedError) {
  // WAL records are also the dist wire format, so they arrive from files
  // and sockets. A record whose counts, slot, sessions, outcomes or
  // billed VMs do not fit this campaign must be rejected by the decoder
  // before commit_vm_hour indexes anything with them.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "low", 25);
  const wal_scan_result scan = scan_wal(dir + "/wal.log");
  ASSERT_GT(scan.records.size(), 1u);
  clasp_platform p(tiny_config(1, "low", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  campaign_runner::vm_hour_staging good;
  ASSERT_EQ(c.decode_wal_record(scan.records[0], good), 0u);
  ASSERT_FALSE(good.outcomes.empty());
  ASSERT_FALSE(good.charges.vm_hours.empty());
  EXPECT_EQ(c.encode_wal_record(0, good), scan.records[0]);

  std::vector<std::string> bad;
  {
    campaign_runner::vm_hour_staging s = good;
    s.outcomes.back().session =
        static_cast<std::uint32_t>(c.session_count() + 1000);
    bad.push_back(c.encode_wal_record(0, s));
  }
  {
    campaign_runner::vm_hour_staging s = good;
    s.outcomes.front().outcome = static_cast<test_outcome>(9);
    bad.push_back(c.encode_wal_record(0, s));
  }
  // A slot outside the fleet, and slot 1 billing slot 0's VM.
  bad.push_back(c.encode_wal_record(c.vm_count(), good));
  bad.push_back(c.encode_wal_record(1, good));
  {
    // A 2^60 point count with no points behind it.
    binary_writer w;
    w.u8('V');
    w.varint(0);
    w.svarint(good.at.hours_since_epoch());
    w.varint(std::uint64_t{1} << 60);
    bad.push_back(w.take());
  }
  // Attempt counts the outcome cannot have: commit_vm_hour adds
  // attempts - 1 retries, so a 0 would add 2^32 - 1 to the tally.
  const unsigned per_hour = c.config().tests_per_vm_hour;
  const std::pair<test_outcome, unsigned> bad_attempts[] = {
      {test_outcome::ok, 0},
      {test_outcome::ok, 2},
      {test_outcome::ok_after_retry, 0},
      {test_outcome::ok_after_retry, 1},
      {test_outcome::ok_after_retry, per_hour + 1},
      {test_outcome::failed, 0},
      {test_outcome::failed, per_hour + 1},
      {test_outcome::vm_down, 1},
      {test_outcome::server_withdrawn, 1},
      {test_outcome::skipped_budget, 1},
  };
  for (const auto& [outcome, attempts] : bad_attempts) {
    campaign_runner::vm_hour_staging s = good;
    s.outcomes.front().outcome = outcome;
    s.outcomes.front().attempts = static_cast<std::uint8_t>(attempts);
    bad.push_back(c.encode_wal_record(0, s));
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    campaign_runner::vm_hour_staging out;
    EXPECT_THROW(c.decode_wal_record(bad[i], out), invalid_argument_error)
        << "bad record " << i;
  }
  // The edges of each legal range still decode.
  const std::pair<test_outcome, unsigned> good_attempts[] = {
      {test_outcome::ok, 1},
      {test_outcome::ok_after_retry, 2},
      {test_outcome::ok_after_retry, per_hour},
      {test_outcome::failed, 1},
      {test_outcome::failed, per_hour},
      {test_outcome::vm_down, 0},
      {test_outcome::server_withdrawn, 0},
      {test_outcome::skipped_budget, 0},
  };
  for (const auto& [outcome, attempts] : good_attempts) {
    campaign_runner::vm_hour_staging s = good;
    s.outcomes.front().outcome = outcome;
    s.outcomes.front().attempts = static_cast<std::uint8_t>(attempts);
    campaign_runner::vm_hour_staging out;
    EXPECT_NO_THROW(c.decode_wal_record(c.encode_wal_record(0, s), out))
        << to_string(outcome) << " with " << attempts << " attempts";
  }

  // The same record in a CRC-valid WAL frame: resume refuses it with the
  // same typed error instead of committing it.
  {
    wal_writer wal(dir + "/wal.log", /*truncate=*/true);
    wal.append(bad[0]);
    wal.flush();
  }
  clasp_platform q(tiny_config(1, "low", root.string()));
  campaign_runner& d = q.start_topology_campaign("us-west1", window());
  EXPECT_THROW(d.resume(d.config().checkpoint_dir), invalid_argument_error);
  fs::remove_all(root);
}

TEST(CampaignResume, HostileSampleCountInStateIsTypedError) {
  // A CRC-valid state.bin whose first someta recorder claims 2^60
  // samples: load_state must refuse the count before sizing anything.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "low", 25);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  const std::string state_path =
      (fs::path(dir) / read_checkpoint_info(*current).base_name() /
       "state.bin")
          .string();
  const std::string state = read_crc_file(state_path);
  // Walk the prefix save_state writes ahead of the first sample count.
  binary_reader in(state);
  for (int i = 0; i < 3; ++i) in.varint();  // run, missed, upload failures
  in.boolean();                             // storage billed
  const std::uint64_t sessions = in.varint();
  for (std::uint64_t i = 0; i < sessions * 6; ++i) in.varint();
  ASSERT_GT(in.varint(), 0u);  // someta recorders
  const std::size_t count_at = in.pos();
  in.varint();
  binary_writer w;
  w.varint(std::uint64_t{1} << 60);
  const std::string hostile =
      state.substr(0, count_at) + w.bytes() + state.substr(in.pos());
  write_crc_file(state_path, hostile);

  clasp_platform p(tiny_config(1, "low", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), invalid_argument_error);
  fs::remove_all(root);
}

}  // namespace
}  // namespace clasp
