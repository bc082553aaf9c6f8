#include "clasp/platform.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_platform;

TEST(PlatformTest, SubstrateWired) {
  auto& p = small_platform();
  EXPECT_GT(p.net().topo->as_count(), 500u);
  EXPECT_GT(p.registry().size(), 1000u);
  EXPECT_EQ(&p.view().net(), &p.net());
  EXPECT_EQ(&p.planner().net(), &p.net());
}

// Set-up is traced as one world span per platform, one select span per
// region and one deploy span per campaign, each CPU-timed. The spans only
// observe: with obs off the same regions select the same servers.
TEST(PlatformTest, SetUpSpansCoverTheWorldAndEachRegion) {
  const bool was_enabled = obs::enabled();
  obs::trace_ring::instance().reset();
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.internet.seed = 8080;
  cfg.servers = ::clasp::testing::small_server_config();
  cfg.obs_metrics = true;
  const hour_stamp begin = topology_campaign_window().begin_at;
  const hour_range window{begin, begin + 24};
  const char* regions[] = {"us-west1", "us-west2", "us-west4",
                           "us-east1", "us-east4", "us-central1"};

  std::vector<std::vector<std::size_t>> traced;
  {
    clasp_platform p(cfg);
    for (const char* region : regions) {
      p.start_topology_campaign(region, window);
      std::vector<std::size_t>& ids = traced.emplace_back();
      for (const selected_server& s : p.select_topology(region).selected) {
        ids.push_back(s.server_id);
      }
    }
  }
  const auto rollups = obs::trace_ring::instance().rollups();
  const auto rollup = [&](obs::phase ph) {
    return rollups[static_cast<std::size_t>(ph)];
  };
  EXPECT_EQ(rollup(obs::phase::world).count, 1u);
  EXPECT_EQ(rollup(obs::phase::select).count, 6u);
  EXPECT_EQ(rollup(obs::phase::deploy).count, 6u);
  EXPECT_GT(rollup(obs::phase::world).cpu_ns, 0u);
  EXPECT_GT(rollup(obs::phase::select).cpu_ns, 0u);

  obs::set_enabled(false);
  obs::trace_ring::instance().reset();
  cfg.obs_metrics = false;
  clasp_platform plain(cfg);
  for (std::size_t i = 0; i < std::size(regions); ++i) {
    std::vector<std::size_t> ids;
    for (const selected_server& s :
         plain.select_topology(regions[i]).selected) {
      ids.push_back(s.server_id);
    }
    EXPECT_EQ(ids, traced[i]) << regions[i];
  }
  EXPECT_EQ(obs::trace_ring::instance().rollups()[static_cast<std::size_t>(
                obs::phase::world)]
                .count,
            0u);
  obs::set_enabled(was_enabled);
}

TEST(PlatformTest, TimezoneOfServerMatchesGeo) {
  auto& p = small_platform();
  const speed_server& s = p.registry().server(0);
  EXPECT_EQ(p.timezone_of_server(0).hours_east_of_utc,
            p.net().geo->city(s.city).tz.hours_east_of_utc);
}

TEST(PlatformTest, DifferentialCampaignRequiresServers) {
  // A platform whose pre-test finds no servers must throw, not deploy an
  // empty campaign. Build a platform with no vantage points: selection
  // measures zero tuples.
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.internet.seed = 4242;
  cfg.internet.vantage_point_count = 0;
  cfg.servers = ::clasp::testing::small_server_config();
  // Named-AS VPs are always seeded, so aim the differential config at an
  // impossible sample count instead.
  cfg.differential.min_measurements = 1000000;
  clasp_platform p(cfg);
  EXPECT_THROW(p.start_differential_campaign("europe-west1"), state_error);
}

TEST(PlatformTest, DownloadSeriesFilterByTier) {
  auto& p = small_platform();
  // The shared fixture has run campaigns already (other suites); query a
  // campaign that exists for sure after selecting + running here.
  const hour_range day{hour_stamp::from_civil({2020, 9, 1}, 0),
                       hour_stamp::from_civil({2020, 9, 2}, 0)};
  campaign_runner& c = p.start_topology_campaign("us-west4", day);
  c.run();
  const auto all = p.download_series("topology", "us-west4");
  const auto premium =
      p.download_series("topology", "us-west4", "download_mbps", "premium");
  const auto standard =
      p.download_series("topology", "us-west4", "download_mbps", "standard");
  EXPECT_EQ(all.series.size(), premium.series.size());
  EXPECT_TRUE(standard.series.empty());
  EXPECT_EQ(all.series.size(), all.tz.size());
}

TEST(PlatformTest, DownloadSeriesParsesServerIds) {
  auto& p = small_platform();
  const hour_stamp at = hour_stamp::from_civil({2020, 9, 1}, 0);
  p.store().write("download_mbps",
                  {{"campaign", "server-tag-ok"}, {"region", "us-west1"},
                   {"server", "7"}},
                  at, 100.0);
  const auto data = p.download_series("server-tag-ok", "us-west1");
  ASSERT_EQ(data.server_ids.size(), 1u);
  EXPECT_EQ(data.server_ids[0], 7u);
  EXPECT_EQ(data.tz[0].hours_east_of_utc,
            p.timezone_of_server(7).hours_east_of_utc);
}

TEST(PlatformTest, DownloadSeriesRejectsMalformedServerTag) {
  auto& p = small_platform();
  const hour_stamp at = hour_stamp::from_civil({2020, 9, 1}, 0);
  for (const char* bad :
       {"abc", "12x", "", "-3", " 5", "99999999999999999999999"}) {
    const std::string campaign = std::string("server-tag-bad-") + bad;
    p.store().write("download_mbps",
                    {{"campaign", campaign}, {"region", "us-west1"},
                     {"server", bad}},
                    at, 100.0);
    EXPECT_THROW(p.download_series(campaign, "us-west1"), state_error)
        << "server tag '" << bad << "'";
  }
  p.store().write("download_mbps",
                  {{"campaign", "server-tag-missing"}, {"region", "us-west1"}},
                  at, 100.0);
  EXPECT_THROW(p.download_series("server-tag-missing", "us-west1"),
               state_error);
}

TEST(PlatformTest, SometaMetadataRecorded) {
  auto& p = small_platform();
  ::clasp::testing::ensure_east1_campaign(p);
  bool checked = false;
  for (const auto& runner : p.campaigns()) {
    if (runner->tests_run() == 0) continue;
    const someta_recorder& meta = runner->metadata(0);
    EXPECT_GT(meta.summary().tests, 0u);
    // The paper's finding: no CPU saturation on the chosen VM type.
    EXPECT_LT(meta.saturation_fraction(), 0.01);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(PlatformTest, CsvExportProducesRows) {
  auto& p = small_platform();
  ::clasp::testing::ensure_east1_campaign(p);
  tag_filter filter;
  filter.required["campaign"] = "topology";
  std::ostringstream os;
  p.store().export_csv(os, "download_mbps", filter);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("hour,value"), std::string::npos);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 10);
}

TEST(PlatformTest, InterconnectCongestionJoinsSelectionAndData) {
  auto& p = small_platform();
  // us-east1 has campaign data in the shared fixture (campaign_test runs
  // first in this binary); if not, run a short window.
  if (p.download_series("topology", "us-east1").series.empty()) {
    const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                            hour_stamp::from_civil({2020, 5, 4}, 0)};
    p.start_topology_campaign("us-east1", window).run();
  }
  const auto reports = p.interconnect_congestion("us-east1");
  ASSERT_FALSE(reports.empty());
  const auto& selection = p.select_topology("us-east1");
  EXPECT_LE(reports.size(), selection.selected.size());
  for (const interconnect_report& r : reports) {
    EXPECT_NE(r.neighbor, cloud_asn());
    EXPECT_GT(r.summary.hours_measured, 0u);
    // The far side must be one the selection covered.
    bool found = false;
    for (const selected_server& s : selection.selected) {
      if (s.far_side == r.far_side) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(PlatformTest, UnknownRegionThrows) {
  auto& p = small_platform();
  EXPECT_THROW(p.select_topology("mars-north1"), not_found_error);
}

}  // namespace
}  // namespace clasp
