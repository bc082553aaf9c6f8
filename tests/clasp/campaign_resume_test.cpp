// Crash-consistent checkpoint/resume: a campaign killed at any hour
// boundary — or mid-hour, with a torn WAL tail — must resume in a fresh
// process and finish with output byte-identical to an uninterrupted run:
// TSDB contents, exported CSV, billing totals, bucket artifacts, someta
// records and the campaign_health report. The sweep crosses kill points
// (checkpoint boundary, mid-interval, torn/partial WAL) with worker
// counts {1, 2, 8} and fault presets off/low; the already-proven
// invariance across workers means each kill state needs only some of the
// combos, spread to cover them all. Malformed WAL records are typed
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
#include "test_support.hpp"
#include "tsdb/wal.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

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
                                    bool expect_resumed = true) {
  clasp_platform p(tiny_config(workers, faults_preset, root));
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
                   resume_and_finish(root.string(), 1, "off",
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
  // Flip one byte of the serialized state: the CRC frame must catch it.
  const std::string state_path = *current + "/state.bin";
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
  const std::string state_path = *current + "/state.bin";
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
