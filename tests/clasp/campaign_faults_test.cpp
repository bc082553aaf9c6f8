// Fault-injected replay: determinism, health accounting and detector
// robustness.
//
//  * faults-on output must be byte-identical across workers 1/2/8 (the
//    schedule and every fault draw come from dedicated counter-based
//    streams);
//  * enabling faults with all rates at zero must leave the measurement
//    output identical to faults-off (zero extra draws on the
//    measurement streams);
//  * campaign_health completeness must match the injected outage and
//    churn schedule exactly;
//  * strict_hour_budget surfaces budget_exceeded_error (catchable as
//    clasp::error) through the staging path and the worker pool;
//  * the V_H detector's precision/recall on planted ground truth at the
//    "low" fault rate must stay within 2 points of the fault-free run.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

platform_config faulty_config(unsigned workers, const std::string& preset) {
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
  cfg.campaign_workers = workers;
  cfg.campaign_faults = fault_config::preset(preset);
  // Raise the stress scenario's preemption rate so a short window
  // reliably exercises the preempt/redeploy path on this tiny fleet;
  // "low" keeps its true preset rates (the detector-robustness bound is
  // against the real preset).
  if (preset == "high") {
    cfg.campaign_faults.vm_preemption_rate = 0.02;
  }
  return cfg;
}

hour_range four_days() {
  return {hour_stamp::from_civil({2020, 5, 1}, 0),
          hour_stamp::from_civil({2020, 5, 5}, 0)};
}

const char* kMetrics[] = {"download_mbps", "upload_mbps",  "latency_ms",
                          "download_loss", "upload_loss",  "gt_episode",
                          "test_status"};

struct faulty_snapshot {
  std::string csv;  // export_csv of all seven metrics, concatenated
  cost_report costs;
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
  std::size_t tests_run{0};
  campaign_health health;
};

faulty_snapshot snapshot_of(clasp_platform& p, campaign_runner& c) {
  faulty_snapshot snap;
  std::ostringstream csv;
  for (const char* metric : kMetrics) p.store().export_csv(csv, metric);
  snap.csv = csv.str();
  snap.costs = p.cloud().costs();
  const storage_bucket& bucket = p.cloud().bucket(c.config().region);
  snap.bucket_mb = bucket.total_megabytes();
  snap.bucket_objects = bucket.object_count();
  snap.tests_run = c.tests_run();
  snap.health = c.health();
  return snap;
}

// One platform per (workers, preset), memoized: platform construction
// dominates this suite's runtime.
const faulty_snapshot& run_once(unsigned workers, const std::string& preset) {
  using key_t = std::pair<unsigned, std::string>;
  static std::map<key_t, faulty_snapshot>* memo =
      new std::map<key_t, faulty_snapshot>();
  const key_t key{workers, preset};
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;

  clasp_platform p(faulty_config(workers, preset));
  campaign_runner& c = p.start_topology_campaign("us-west1", four_days());
  c.run();
  return memo->emplace(key, snapshot_of(p, c)).first->second;
}

void expect_identical(const faulty_snapshot& a, const faulty_snapshot& b) {
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.costs.vm_usd, b.costs.vm_usd);
  EXPECT_EQ(a.costs.egress_usd, b.costs.egress_usd);
  EXPECT_EQ(a.costs.storage_usd, b.costs.storage_usd);
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.health.total_retries, b.health.total_retries);
  EXPECT_EQ(a.health.failed_tests, b.health.failed_tests);
  EXPECT_EQ(a.health.upload_failures, b.health.upload_failures);
  EXPECT_EQ(a.health.withdrawn_servers, b.health.withdrawn_servers);
  EXPECT_EQ(a.health.vm_redeploys, b.health.vm_redeploys);
  EXPECT_EQ(a.health.vm_downtime_hours, b.health.vm_downtime_hours);
  ASSERT_EQ(a.health.servers.size(), b.health.servers.size());
  for (std::size_t i = 0; i < a.health.servers.size(); ++i) {
    EXPECT_EQ(a.health.servers[i].completed, b.health.servers[i].completed);
    EXPECT_EQ(a.health.servers[i].failed, b.health.servers[i].failed);
    EXPECT_EQ(a.health.servers[i].retries, b.health.servers[i].retries);
  }
}

TEST(CampaignFaultsTest, FaultsOnIsByteIdenticalAcrossWorkers) {
  const faulty_snapshot& reference = run_once(1, "high");
  ASSERT_FALSE(reference.csv.empty());
  // High rates actually exercised something.
  EXPECT_GT(reference.health.total_retries, 0u);
  EXPECT_GT(reference.health.withdrawn_servers, 0u);
  for (const unsigned workers : {2u, 8u}) {
    expect_identical(reference, run_once(workers, "high"));
  }
}

TEST(CampaignFaultsTest, ZeroRatesMatchFaultsOffMetrics) {
  // Enabled-with-zero-rates draws nothing from the measurement streams,
  // so every metric matches the faults-off run; only the test_status
  // series is extra.
  clasp_platform off(faulty_config(1, "off"));
  campaign_runner& c_off = off.start_topology_campaign("us-west1", four_days());
  c_off.run();

  platform_config zero_cfg = faulty_config(1, "off");
  zero_cfg.campaign_faults.enabled = true;  // all rates stay 0
  clasp_platform zero(zero_cfg);
  campaign_runner& c_zero = zero.start_topology_campaign("us-west1", four_days());
  c_zero.run();

  for (const char* metric :
       {"download_mbps", "upload_mbps", "latency_ms", "download_loss",
        "upload_loss", "gt_episode"}) {
    std::ostringstream a, b;
    off.store().export_csv(a, metric);
    zero.store().export_csv(b, metric);
    EXPECT_EQ(a.str(), b.str()) << metric;
  }
  EXPECT_EQ(c_off.tests_run(), c_zero.tests_run());
  EXPECT_EQ(off.cloud().costs().total(), zero.cloud().costs().total());
  // Zero rates: the health report shows a perfectly complete campaign.
  EXPECT_EQ(c_zero.health().mean_completeness(), 1.0);
  // And faults-off opens no test_status series at all.
  EXPECT_TRUE(off.store().query("test_status").empty());
  EXPECT_FALSE(zero.store().query("test_status").empty());
}

TEST(CampaignFaultsTest, HealthMatchesInjectedOutageScheduleExactly) {
  // Hand-injected outages with zero fault rates: the health report must
  // reproduce the schedule hour for hour.
  platform_config cfg = faulty_config(1, "off");
  cfg.campaign_faults.enabled = true;
  clasp_platform p(cfg);
  campaign_runner& c = p.start_topology_campaign("us-west1", four_days());
  const hour_stamp t0 = four_days().begin_at;
  c.inject_vm_outage(0, {t0 + 10, t0 + 14});  // 4 hours
  c.inject_vm_outage(0, {t0 + 40, t0 + 41});  // 1 hour
  c.inject_vm_outage(1, {t0 + 20, t0 + 26});  // 6 hours
  c.run();

  const campaign_health health = c.health();
  EXPECT_EQ(health.window_hours, 96u);
  EXPECT_EQ(health.vm_downtime_hours, 11u);
  EXPECT_EQ(health.vm_redeploys, 3u);  // every window ends mid-campaign
  const std::size_t window_hours = 96;
  for (const auto& entry : health.servers) {
    EXPECT_EQ(entry.scheduled_hours, window_hours);
    EXPECT_EQ(entry.failed, 0u);
    EXPECT_EQ(entry.retries, 0u);
    EXPECT_EQ(entry.withdrawn_hours, 0u);
    // Sessions on VM 0 lost exactly 5 hours, on VM 1 exactly 6, others 0.
    EXPECT_TRUE(entry.down_hours == 0u || entry.down_hours == 5u ||
                entry.down_hours == 6u)
        << entry.down_hours;
    EXPECT_EQ(entry.completed + entry.down_hours, window_hours);
    EXPECT_DOUBLE_EQ(
        entry.completeness(),
        static_cast<double>(entry.completed) / window_hours);
  }
  // The fleet-level aggregate agrees with the per-server view.
  double mean = 0.0;
  for (const auto& entry : health.servers) mean += entry.completeness();
  mean /= static_cast<double>(health.servers.size());
  EXPECT_DOUBLE_EQ(health.mean_completeness(), mean);
  // VM redeploys show up on the substrate's restart counters too (slot->
  // vm_id mapping is internal, so compare the fleet-wide sum).
  unsigned restarts = 0;
  for (std::size_t v = 0; v < p.cloud().vm_count(); ++v) {
    restarts += p.cloud().vm(v).restarts;
  }
  EXPECT_EQ(restarts, 3u);
}

TEST(CampaignFaultsTest, StrictBudgetSurfacesBudgetExceededError) {
  // A 100% failure rate with a strict budget: retries starve later
  // sessions of their slots on the very first hour.
  platform_config cfg = faulty_config(1, "off");
  cfg.campaign_faults.enabled = true;
  cfg.campaign_faults.test_failure_rate = 1.0;
  cfg.campaign_faults.max_retries = 16;
  cfg.campaign_faults.strict_hour_budget = true;

  for (const unsigned workers : {1u, 4u}) {
    cfg.campaign_workers = workers;  // also through the pool's rethrow
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", four_days());
    EXPECT_THROW(c.run_hour(four_days().begin_at), budget_exceeded_error);
    // And the root-of-hierarchy handler catches it too.
    try {
      c.run_hour(four_days().begin_at + 1);
      FAIL() << "expected budget_exceeded_error";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
    }
  }
}

TEST(CampaignFaultsTest, LowFaultRateKeepsDetectorWithinTwoPoints) {
  // Gap tolerance end to end: precision/recall of the V_H detector
  // against planted ground truth, fault-free vs the "low" preset.
  // A longer window than the determinism tests': the precision/recall
  // estimates need enough labeled hours that the 2-point bound measures
  // fault impact, not small-sample noise.
  const hour_range window{four_days().begin_at, four_days().begin_at + 240};
  auto validated = [&](const std::string& preset) {
    clasp_platform p(faulty_config(1, preset));
    campaign_runner& c = p.start_topology_campaign("us-west1", window);
    c.run();
    detector_validation total;
    const auto data = p.download_series("topology", c.config().region);
    for (std::size_t i = 0; i < data.series.size(); ++i) {
      const ts_series* gt =
          p.store().find("gt_episode", data.series[i]->tags());
      if (gt == nullptr || data.series[i]->size() == 0) continue;
      const detector_validation v =
          validate_detector(*data.series[i], *gt, data.tz[i], 0.5);
      total.true_positive += v.true_positive;
      total.false_positive += v.false_positive;
      total.false_negative += v.false_negative;
      total.true_negative += v.true_negative;
    }
    return total;
  };

  const detector_validation clean = validated("off");
  const detector_validation low = validated("low");
  ASSERT_GT(clean.true_positive + clean.false_negative, 0u);
  ASSERT_GT(low.true_positive + low.false_negative, 0u);
  EXPECT_LT(std::abs(clean.precision() - low.precision()), 0.02)
      << "clean " << clean.precision() << " vs low " << low.precision();
  EXPECT_LT(std::abs(clean.recall() - low.recall()), 0.02)
      << "clean " << clean.recall() << " vs low " << low.recall();
}

TEST(CampaignFaultsTest, AnalysisGapToleranceFiltersIncompleteServers) {
  // The analysis-side completeness helpers agree with campaign_health.
  const faulty_snapshot& snap = run_once(1, "high");
  clasp_platform p(faulty_config(1, "high"));
  campaign_runner& c = p.start_topology_campaign("us-west1", four_days());
  c.run();
  const auto data = p.download_series("topology", c.config().region);
  ASSERT_FALSE(data.series.empty());

  const auto kept = filter_low_completeness(data.series, four_days(), 0.8);
  EXPECT_LE(kept.size(), data.series.size());
  for (const std::size_t i : kept) {
    EXPECT_GE(series_completeness(*data.series[i], four_days()), 0.8);
  }
  // Health and store views of completeness agree per server: a series'
  // in-window point count is that server's completed-test count.
  const campaign_health health = c.health();
  ASSERT_EQ(health.servers.size(), snap.health.servers.size());
  for (const auto& entry : health.servers) {
    const ts_series* s = nullptr;
    for (const ts_series* cand : data.series) {
      if (cand->tag("server") == std::to_string(entry.server_id)) {
        s = cand;
        break;
      }
    }
    if (s == nullptr) {
      EXPECT_EQ(entry.completed, 0u);
      continue;
    }
    EXPECT_DOUBLE_EQ(series_completeness(*s, four_days()),
                     entry.completeness());
  }
}

}  // namespace
}  // namespace clasp
