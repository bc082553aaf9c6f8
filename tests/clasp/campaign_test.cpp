#include "clasp/campaign.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_platform;

// A dedicated short-window campaign for these tests, deployed once.
campaign_runner& short_campaign() {
  static campaign_runner* runner = [] {
    auto& p = small_platform();
    const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                            hour_stamp::from_civil({2020, 5, 4}, 0)};
    campaign_runner& r = p.start_topology_campaign("us-east1", window);
    r.run();
    return &r;
  }();
  return *runner;
}

TEST(CampaignTest, VmFleetSizedForHourlyGranularity) {
  campaign_runner& c = short_campaign();
  const std::size_t expected_vms =
      (c.session_count() + c.config().tests_per_vm_hour - 1) /
      c.config().tests_per_vm_hour;
  EXPECT_EQ(c.vm_count(), expected_vms);
  EXPECT_GT(c.session_count(), 0u);
}

TEST(CampaignTest, EveryServerTestedEveryHour) {
  campaign_runner& c = short_campaign();
  const std::size_t hours =
      static_cast<std::size_t>(c.config().window.count());
  EXPECT_EQ(c.tests_run(), c.session_count() * hours);
}

TEST(CampaignTest, MetricsLandInStore) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  tag_filter filter;
  filter.required["campaign"] = "topology";
  filter.required["region"] = "us-east1";
  const auto series = p.store().query("download_mbps", filter);
  EXPECT_EQ(series.size(), c.session_count());
  const std::size_t hours =
      static_cast<std::size_t>(c.config().window.count());
  for (const ts_series* s : series) {
    EXPECT_EQ(s->size(), hours);
    EXPECT_EQ(s->tag("tier").value_or(""), "premium");
    EXPECT_TRUE(s->tag("server").has_value());
    EXPECT_TRUE(s->tag("network").has_value());
  }
  // Companion metrics exist with the same cardinality.
  for (const char* metric : {"upload_mbps", "latency_ms", "download_loss",
                             "upload_loss", "gt_episode"}) {
    EXPECT_EQ(p.store().query(metric, filter).size(), c.session_count())
        << metric;
  }
}

TEST(CampaignTest, BillingAdvanced) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  const cost_report& costs = p.cloud().costs();
  EXPECT_GT(costs.vm_usd, 0.0);
  EXPECT_GT(costs.egress_usd, 0.0);
  EXPECT_GT(costs.storage_usd, 0.0);
  // VM-hours: fleet * hours at the n1-standard-2 rate, plus any other VMs
  // charged in this shared fixture.
  const double campaign_vm_usd = c.vm_count() *
                                 static_cast<double>(c.config().window.count()) *
                                 0.095;
  EXPECT_GE(costs.vm_usd, campaign_vm_usd - 1e-6);
}

TEST(CampaignTest, BucketReceivedArtifacts) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  const storage_bucket& bucket = p.cloud().bucket("us-east1");
  EXPECT_GE(bucket.object_count(),
            c.vm_count() * static_cast<std::size_t>(c.config().window.count()));
  EXPECT_GT(bucket.total_megabytes(), 0.0);
}

TEST(CampaignTest, DeployValidation) {
  auto& p = small_platform();
  campaign_runner fresh(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west4";
  EXPECT_THROW(fresh.deploy(cfg, {}), invalid_argument_error);
  cfg.tests_per_vm_hour = 0;
  EXPECT_THROW(fresh.deploy(cfg, {0}), invalid_argument_error);
  EXPECT_THROW(fresh.run(), state_error);  // not deployed
  EXPECT_THROW(fresh.run_hour(hour_stamp{0}), state_error);

  cfg.tests_per_vm_hour = 17;
  cfg.label = "validation";
  fresh.deploy(cfg, {0, 1, 2});
  EXPECT_THROW(fresh.deploy(cfg, {0}), state_error);  // double deploy
}

TEST(CampaignTest, NullDependenciesRejected) {
  auto& p = small_platform();
  EXPECT_THROW(
      campaign_runner(nullptr, &p.view(), &p.registry(), &p.store()),
      invalid_argument_error);
}

TEST(CampaignTest, DownloadValuesArePlausible) {
  auto& p = small_platform();
  tag_filter filter;
  filter.required["campaign"] = "topology";
  filter.required["region"] = "us-east1";
  for (const ts_series* s : p.store().query("download_mbps", filter)) {
    for (const ts_point pt : s->points()) {
      EXPECT_GT(pt.value, 0.0);
      EXPECT_LE(pt.value, 1100.0);
    }
  }
}

}  // namespace
}  // namespace clasp
// Appended: failure injection.
namespace clasp {
namespace {

TEST(CampaignOutageTest, VmOutageCreatesGapsWithoutCharges) {
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west2";
  cfg.label = "outage-test";
  cfg.window = hour_range{hour_stamp::from_civil({2020, 6, 1}, 0),
                          hour_stamp::from_civil({2020, 6, 3}, 0)};
  // Two servers on one VM.
  const auto us = p.registry().crawl("US");
  runner.deploy(cfg, {us[0], us[1]});
  ASSERT_EQ(runner.vm_count(), 1u);

  // Bad injections rejected.
  EXPECT_THROW(runner.inject_vm_outage(5, cfg.window),
               invalid_argument_error);
  EXPECT_THROW(
      runner.inject_vm_outage(0, hour_range{cfg.window.begin_at,
                                            cfg.window.begin_at}),
      invalid_argument_error);

  // Take the VM down for the first 12 hours of day 2.
  const hour_range outage{cfg.window.begin_at + 24, cfg.window.begin_at + 36};
  runner.inject_vm_outage(0, outage);

  const double vm_usd_before = p.cloud().costs().vm_usd;
  runner.run();
  const double vm_hours_billed =
      (p.cloud().costs().vm_usd - vm_usd_before) / 0.095;

  // 48 window hours minus 12 outage hours.
  EXPECT_NEAR(vm_hours_billed, 36.0, 1e-6);
  EXPECT_EQ(runner.tests_run(), 2u * 36u);
  EXPECT_EQ(runner.tests_missed(), 2u * 12u);

  // The series really has a gap over the outage.
  tag_filter filter;
  filter.required["campaign"] = "outage-test";
  const auto series = p.store().query("download_mbps", filter);
  ASSERT_EQ(series.size(), 2u);
  for (const ts_series* s : series) {
    EXPECT_EQ(s->size(), 36u);
    EXPECT_TRUE(s->range(outage.begin_at, outage.end_at).empty());
  }
}

}  // namespace
}  // namespace clasp
