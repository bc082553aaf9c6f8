// Crash-consistent checkpoint/resume: a campaign killed at any hour
// boundary must resume in a fresh process — restoring its last base and
// re-executing the hours since — and finish with output byte-identical to
// an uninterrupted run: TSDB contents, exported CSV, billing totals,
// bucket artifacts, someta records and the campaign_health report. The
// sweep crosses kill points (checkpoint boundary, mid-interval, inside
// the publish protocol, several cadence publishes past the base) with
// worker counts {1, 2, 8} and fault presets off/low; the already-proven
// invariance across workers means each kill state needs only some of the
// combos, spread to cover them all. Malformed shard records, manifests
// and state files are typed errors, never out-of-range writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
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
  std::vector<someta_summary> someta;  // per VM slot
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
    EXPECT_EQ(a.someta[v].tests, b.someta[v].tests) << "vm " << v;
    EXPECT_EQ(a.someta[v].saturated, b.someta[v].saturated) << "vm " << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.someta[v].peak_cpu),
              std::bit_cast<std::uint64_t>(b.someta[v].peak_cpu))
        << "vm " << v;
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
  // Checkpointing must never perturb the output — and a durable run is
  // comparable across worker counts like any other.
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
  // Hour 20 is a checkpoint multiple (every 10): nothing past the
  // checkpoint is lost, and resume re-executes the hours since its base
  // (hour 10). Resume with a different worker count than the killed run
  // used.
  for (const char* preset : {"off", "low"}) {
    const fs::path root = test_dir();
    run_and_kill(root.string(), 2, preset, 20);
    expect_identical(reference(preset),
                     resume_and_finish(root.string(), 8, preset));
    fs::remove_all(root);
  }
}

TEST(CampaignResume, KillMidInterval) {
  // Hour 25: the checkpoint at 20 (on the base at 10), and five hours
  // past it that run again.
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
  // wire format: at 10x fleet_scale, kill mid-interval (the checkpoint
  // at 20 on the base at 10, plus hours that run again) and finish
  // byte-identically to an uninterrupted 10x run — resuming with a
  // different worker count than the killed run used.
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

TEST(CampaignResume, OutageInjectedAfterTheBaseSurvivesResume) {
  // A window injected mid-run, after the base at 10, takes VM 0 down for
  // hours 14..17. The checkpoint at 20 builds on that base, so resume
  // re-executes those hours and must take the VM down again.
  const hour_range outage{window().begin_at + 14, window().begin_at + 18};
  campaign_snapshot ref;
  {
    clasp_platform p(tiny_config(1, "low"));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.run_until(window().begin_at + 12));
    c.inject_vm_outage(0, outage);
    ASSERT_TRUE(c.run());
    ref = snapshot_of(p, c);
  }
  EXPECT_GT(ref.tests_missed, reference("low").tests_missed);
  const fs::path root = test_dir();
  {
    clasp_platform p(tiny_config(2, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    ASSERT_TRUE(c.run_until(window().begin_at + 12));
    c.inject_vm_outage(0, outage);
    ASSERT_TRUE(c.run_until(window().begin_at + 25));
    const checkpoint_info info = current_info(c.config().checkpoint_dir);
    EXPECT_LT(info.base_hours, outage.begin_at.hours_since_epoch());
    EXPECT_GE(info.cursor_hours, outage.end_at.hours_since_epoch());
  }
  expect_identical(ref, resume_and_finish(root.string(), 8, "low"));
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
  // The surviving checkpoint resumes, the hours after it run again, and
  // the run finishes byte-identically.
  expect_identical(reference("low"),
                   resume_and_finish(root.string(), 2, "low"));
  fs::remove_all(root);
}

// Run with every_hours = 2 up to `kill_at_hour`: cadence publishes build
// on the geometric bases at 0, 2, 6, 14 and 30.
std::string run_and_kill_every_two(const std::string& root, unsigned workers,
                                   const std::string& faults_preset,
                                   int kill_at_hour) {
  clasp_platform p(tiny_config(workers, faults_preset, root, 2));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_TRUE(c.run_until(window().begin_at + kill_at_hour));
  return c.config().checkpoint_dir;
}

TEST(CampaignResume, KillBetweenCurrentFlipAndGc) {
  // A kill after CURRENT flips but before GC leaves the checkpoints the
  // new one supersedes on disk. Resume reads only what CURRENT names, and
  // the next publish collects the rest. The publish at 22 builds on the
  // base at 14; the one at 30 is itself a base.
  struct leg {
    int publish_hour;
    const char* preset;
    unsigned killed_workers;
    unsigned resumed_workers;
  };
  for (const leg& l : {leg{22, "off", 1, 8}, leg{22, "low", 8, 2},
                       leg{30, "off", 2, 1}, leg{30, "low", 1, 8}}) {
    const fs::path root = test_dir();
    std::string dir;
    {
      clasp_platform p(
          tiny_config(l.killed_workers, l.preset, root.string(), 2));
      campaign_runner& c = p.start_topology_campaign("us-west1", window());
      dir = c.config().checkpoint_dir;
      ASSERT_TRUE(c.run_until(window().begin_at + (l.publish_hour - 2)));
      set_publish_kill_point_for_testing(publish_kill_point::before_gc);
      bool killed = false;
      try {
        c.run_until(window().begin_at + l.publish_hour);
      } catch (const checkpoint_killed_for_testing& k) {
        EXPECT_EQ(k.point, publish_kill_point::before_gc);
        killed = true;
      }
      set_publish_kill_point_for_testing(publish_kill_point::none);
      ASSERT_TRUE(killed);
    }
    const checkpoint_info info = current_info(dir);
    EXPECT_EQ(info.cursor_hours,
              (window().begin_at + l.publish_hour).hours_since_epoch());
    // The superseded checkpoint GC did not reach.
    const std::string superseded =
        dir + "/ckpt-" +
        std::to_string((window().begin_at + (l.publish_hour - 2))
                           .hours_since_epoch());
    EXPECT_TRUE(fs::exists(superseded));
    expect_identical(reference(l.preset),
                     resume_and_finish(root.string(), l.resumed_workers,
                                       l.preset, 2));
    EXPECT_FALSE(fs::exists(superseded));
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
    set_publish_kill_point_for_testing(publish_kill_point::after_directory_swap);
    bool killed = false;
    try {
      c.run_until(window().begin_at + 1);
    } catch (const checkpoint_killed_for_testing& k) {
      EXPECT_EQ(k.point, publish_kill_point::after_directory_swap);
      killed = true;
    }
    set_publish_kill_point_for_testing(publish_kill_point::none);
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
  // A publish that fails (ENOSPC, simulated) leaves the previous
  // checkpoint CURRENT and the process state intact, so the same process
  // can carry on: the next publish covers the hours since, the run
  // finishes byte-identically and what it leaves on disk resumes to the
  // same output.
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

TEST(CampaignResume, KillThreeCadencePublishesAfterTheBase) {
  // Killed at 27 with a checkpoint every 2 hours: CURRENT is the publish
  // at 26, six cadence publishes past the base at 14. Resume restores the
  // base and re-executes twelve hours, on one worker and on eight.
  for (const char* preset : {"off", "low"}) {
    for (const unsigned workers : {1u, 8u}) {
      const fs::path root = test_dir();
      const std::string dir =
          run_and_kill_every_two(root.string(), 2, preset, 27);
      const checkpoint_info info = current_info(dir);
      EXPECT_EQ(info.cursor_hours,
                (window().begin_at + 26).hours_since_epoch());
      EXPECT_GE(info.cursor_hours - info.base_hours, 3 * 2);
      // GC kept exactly the checkpoint and its base.
      std::size_t checkpoints = 0;
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().starts_with("ckpt-")) {
          ++checkpoints;
        }
      }
      EXPECT_EQ(checkpoints, 2u);
      EXPECT_TRUE(fs::exists(fs::path(dir) / info.base_name() / "tsdb.snap"));
      EXPECT_FALSE(fs::exists(fs::path(dir) / "wal.log"));
      expect_identical(reference(preset),
                       resume_and_finish(root.string(), workers, preset, 2));
      fs::remove_all(root);
    }
  }
}

TEST(CampaignResume, ManifestOutsideTheWindowOrWithoutBaseIsRejected) {
  // The fingerprint pins the window, so a manifest whose cursor lies past
  // it is damage: resume refuses it rather than re-executing hours the
  // campaign never had. A manifest naming a base that is not on disk is a
  // state_error.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill_every_two(root.string(), 1, "low", 27);
  const std::string current = *current_checkpoint(dir);
  const checkpoint_info info = read_checkpoint_info(current);
  const auto write_manifest = [&](std::int64_t cursor, std::int64_t base) {
    binary_writer m;
    m.u32(0x4B434C43u);  // "CLCK"
    m.u32(kCheckpointVersion);
    m.u64(info.fingerprint);
    m.svarint(cursor);
    m.svarint(base);
    write_crc_file(current + "/MANIFEST", m.bytes());
  };
  clasp_platform p(tiny_config(1, "low", root.string(), 2));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  write_manifest(window().end_at.hours_since_epoch() + 1000, info.base_hours);
  EXPECT_THROW(c.resume(dir), invalid_argument_error);
  write_manifest(info.cursor_hours,
                 window().begin_at.hours_since_epoch() - 1);
  EXPECT_THROW(c.resume(dir), invalid_argument_error);
  write_manifest(info.cursor_hours, info.base_hours + 2);
  EXPECT_THROW(c.resume(dir), state_error);
  write_manifest(info.cursor_hours, info.cursor_hours + 1);
  EXPECT_THROW(read_checkpoint_info(current), invalid_argument_error);
  fs::remove_all(root);
}

TEST(CampaignResume, PublishBytesStayFlatExceptAtBases) {
  // The bytes a publish makes durable: a cadence publish writes a
  // few-KB ledger and manifest, however many hours it covers and however
  // long the window already is; only bases rewrite the past, and the
  // geometric schedule keeps them logarithmic in the window.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  obs::counter& bytes = reg.get_counter(obs::family::kCheckpointBytesWritten);
  obs::counter& compactions =
      reg.get_counter(obs::family::kCheckpointCompactions);
  struct publish {
    std::uint64_t bytes;
    bool base;
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
  std::vector<std::uint64_t> cadence_1, cadence_3, bases_1;
  for (std::size_t i = 1; i < hourly.size(); ++i) {
    (hourly[i].base ? bases_1 : cadence_1).push_back(hourly[i].bytes);
  }
  for (std::size_t i = 1; i < three_hourly.size(); ++i) {
    if (!three_hourly[i].base) cadence_3.push_back(three_hourly[i].bytes);
  }
  ASSERT_GE(cadence_1.size(), 20u);
  ASSERT_GE(cadence_3.size(), 5u);
  // 36 hourly publishes: a geometric schedule writes about log2(36)
  // bases, each larger than the one before.
  EXPECT_GE(bases_1.size(), 2u);
  EXPECT_LE(bases_1.size(), 7u);
  for (std::size_t i = 1; i < bases_1.size(); ++i) {
    EXPECT_GT(bases_1[i], bases_1[i - 1]);
  }
  const auto mean = [](const std::vector<std::uint64_t>& v) {
    double sum = 0;
    for (const std::uint64_t b : v) sum += static_cast<double>(b);
    return sum / static_cast<double>(v.size());
  };
  const double publish_bytes = mean(cadence_1);
  // Three hours since the last publish cost what one hour did.
  EXPECT_GT(mean(cadence_3), 0.75 * publish_bytes);
  EXPECT_LT(mean(cadence_3), 1.25 * publish_bytes);
  // A cadence publish late in the window costs what an early one did,
  // and a small fraction of any base.
  for (const std::uint64_t b : cadence_1) {
    EXPECT_GT(static_cast<double>(b), 0.75 * publish_bytes);
    EXPECT_LT(static_cast<double>(b), 1.25 * publish_bytes);
  }
  ASSERT_FALSE(bases_1.empty());
  EXPECT_LT(10.0 * publish_bytes, static_cast<double>(bases_1.front()));
}

TEST(CampaignResume, VersionThreeCheckpointIsRejected) {
  // A checkpoint written when the MANIFEST still listed sealed WAL
  // segments: its version alone must refuse it, with a typed error.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "off", 20);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  const checkpoint_info info = read_checkpoint_info(*current);
  binary_writer v3;
  v3.u32(0x4B434C43u);  // "CLCK"
  v3.u32(3);
  v3.u64(info.fingerprint);
  v3.svarint(info.cursor_hours);
  v3.svarint(info.base_hours);
  v3.u64(4096);  // base bytes
  v3.varint(0);  // no sealed segments
  write_crc_file(*current + "/MANIFEST", v3.bytes());
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
  // second is killed mid-interval after a cadence publish; a fresh
  // platform resumes both in the original order and must land on the
  // uninterrupted costs and store bytes. The ledger carries the
  // platform-wide cloud state re-executing the second campaign's hours
  // cannot rebuild.
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
    EXPECT_LT(current_info(west2_dir).base_hours,
              current_info(west2_dir).cursor_hours);
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

TEST(CampaignResume, MalformedWalRecordIsTypedError) {
  // VM-hour records are the dist wire format, so they arrive from
  // sockets. A record whose counts, slot, sessions, outcomes, billed VMs
  // or point series do not fit this campaign must be rejected by the
  // decoder before commit_vm_hour indexes anything with them. A second
  // campaign shares the store, as the paper's six regions do.
  clasp_platform p(two_region_config(1, "low", ""));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  campaign_runner& other = p.start_topology_campaign("us-west2", window());
  const hour_stamp at = window().begin_at + 20;
  std::vector<campaign_runner::vm_hour_staging> staged;
  c.stage_shard_hour(at, 0, c.vm_count(), staged);
  const std::string record = c.encode_wal_record(0, staged[0]);
  campaign_runner::vm_hour_staging good;
  ASSERT_EQ(c.decode_wal_record(record, good), 0u);
  ASSERT_FALSE(good.points.empty());
  ASSERT_FALSE(good.outcomes.empty());
  ASSERT_FALSE(good.charges.vm_hours.empty());
  EXPECT_EQ(c.encode_wal_record(0, good), record);

  // `good` with its first point's series ref written as the raw varint
  // `ref` (encode_wal_record takes a 32-bit series_ref).
  const auto with_first_ref = [&](std::uint64_t ref) {
    const auto header = [&](binary_writer& w, std::size_t points) {
      w.u8('V');
      w.varint(0);
      w.svarint(good.at.hours_since_epoch());
      w.varint(points);
    };
    campaign_runner::vm_hour_staging rest = good;
    rest.points.clear();
    binary_writer head;
    header(head, 0);
    const std::string tail =
        c.encode_wal_record(0, rest).substr(head.take().size());
    binary_writer w;
    header(w, good.points.size());
    for (std::size_t i = 0; i < good.points.size(); ++i) {
      w.varint(i == 0 ? ref : good.points[i].ref);
      w.f64(good.points[i].value);
    }
    return w.take() + tail;
  };
  ASSERT_EQ(with_first_ref(good.points.front().ref), record);
  std::vector<campaign_runner::vm_hour_staging> theirs;
  other.stage_shard_hour(at, 0, other.vm_count(), theirs);
  const auto foreign = std::find_if(
      theirs.begin(), theirs.end(),
      [](const campaign_runner::vm_hour_staging& s) {
        return !s.points.empty();
      });
  ASSERT_NE(foreign, theirs.end());

  std::vector<std::string> bad;
  // A point series ref past 2^32 that would truncate onto this
  // campaign's own first ref, one of the other campaign's series, and
  // one past the store's last series.
  bad.push_back(with_first_ref((std::uint64_t{1} << 32) +
                               good.points.front().ref));
  bad.push_back(with_first_ref(foreign->points.front().ref));
  bad.push_back(with_first_ref(p.store().series_count()));
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
}

// A someta summary no run of tests can produce: more saturated tests
// than tests, a NaN peak, a peak above full utilization.
struct hostile_someta {
  const char* what;
  std::uint64_t saturated_over_tests;  // saturated = tests + this
  double peak_cpu;
};
const hostile_someta kHostileSometa[] = {
    {"saturated above tests", 1, 0.5},
    {"NaN peak", 0, std::numeric_limits<double>::quiet_NaN()},
    {"peak of 1.5", 0, 1.5},
};

TEST(CampaignResume, HostileSometaSummaryIsTypedError) {
  // In state.bin: the first VM's summary, CRC-valid, must be refused by
  // load_state with a typed error.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "low", 25);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  const std::string state_path =
      (fs::path(dir) / read_checkpoint_info(*current).base_name() /
       "state.bin")
          .string();
  const std::string state = read_crc_file(state_path);
  // Walk the prefix save_state writes ahead of the first summary.
  binary_reader in(state);
  const std::uint64_t vms = in.varint();  // outage windows per VM
  for (std::uint64_t v = 0; v < vms; ++v) {
    const std::uint64_t windows = in.varint();
    for (std::uint64_t w = 0; w < 2 * windows; ++w) in.svarint();
  }
  for (int i = 0; i < 3; ++i) in.varint();  // run, missed, upload failures
  in.boolean();                             // storage billed
  const std::uint64_t sessions = in.varint();
  for (std::uint64_t i = 0; i < sessions * 6; ++i) in.varint();
  ASSERT_EQ(in.varint(), vms);  // someta summaries
  const std::size_t summary_at = in.pos();
  const std::uint64_t tests = in.varint();
  const std::uint64_t saturated = in.varint();
  const double peak = in.f64();
  ASSERT_GT(tests, 0u);
  ASSERT_LE(saturated, tests);
  ASSERT_GT(peak, 0.0);
  ASSERT_LE(peak, 1.0);
  const std::string tail = state.substr(in.pos());
  for (const hostile_someta& h : kHostileSometa) {
    binary_writer w;
    w.varint(tests);
    w.varint(h.saturated_over_tests == 0 ? saturated
                                         : tests + h.saturated_over_tests);
    w.f64(h.peak_cpu);
    write_crc_file(state_path, state.substr(0, summary_at) + w.bytes() + tail);
    clasp_platform p(tiny_config(1, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_THROW(c.resume(c.config().checkpoint_dir), invalid_argument_error)
        << h.what;
  }
  // The untouched summary still resumes.
  write_crc_file(state_path, state);
  {
    clasp_platform p(tiny_config(1, "low", root.string()));
    campaign_runner& c = p.start_topology_campaign("us-west1", window());
    EXPECT_TRUE(c.resume(c.config().checkpoint_dir));
  }
  fs::remove_all(root);

  // In a shard record: the decoder checks the hour's summary against its
  // tests_run.
  clasp_platform p(tiny_config(1, "low"));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  std::vector<campaign_runner::vm_hour_staging> staged;
  c.stage_shard_hour(window().begin_at + 20, 0, c.vm_count(), staged);
  const auto ran = std::find_if(
      staged.begin(), staged.end(),
      [](const campaign_runner::vm_hour_staging& s) {
        return s.tests_run != 0;
      });
  ASSERT_NE(ran, staged.end());
  const std::size_t slot = static_cast<std::size_t>(ran - staged.begin());
  campaign_runner::vm_hour_staging out;
  ASSERT_EQ(c.decode_wal_record(c.encode_wal_record(slot, *ran), out), slot);
  EXPECT_EQ(out.saturated_tests, ran->saturated_tests);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.peak_cpu),
            std::bit_cast<std::uint64_t>(ran->peak_cpu));
  for (const hostile_someta& h : kHostileSometa) {
    campaign_runner::vm_hour_staging s = *ran;
    if (h.saturated_over_tests != 0) {
      s.saturated_tests = s.tests_run + h.saturated_over_tests;
    }
    s.peak_cpu = h.peak_cpu;
    EXPECT_THROW(c.decode_wal_record(c.encode_wal_record(slot, s), out),
                 invalid_argument_error)
        << h.what;
  }
}

TEST(CampaignResume, VersionFourCheckpointIsRejected) {
  // A checkpoint whose state.bin still carried every someta sample: its
  // version alone must refuse it, with a typed error.
  const fs::path root = test_dir();
  const std::string dir = run_and_kill(root.string(), 1, "off", 20);
  const auto current = current_checkpoint(dir);
  ASSERT_TRUE(current.has_value());
  const checkpoint_info info = read_checkpoint_info(*current);
  binary_writer v4;
  v4.u32(0x4B434C43u);  // "CLCK"
  v4.u32(4);
  v4.u64(info.fingerprint);
  v4.svarint(info.cursor_hours);
  v4.svarint(info.base_hours);
  write_crc_file(*current + "/MANIFEST", v4.bytes());
  EXPECT_THROW(read_checkpoint_info(*current), invalid_argument_error);
  clasp_platform p(tiny_config(1, "off", root.string()));
  campaign_runner& c = p.start_topology_campaign("us-west1", window());
  EXPECT_THROW(c.resume(c.config().checkpoint_dir), invalid_argument_error);
  fs::remove_all(root);
}

}  // namespace
}  // namespace clasp
