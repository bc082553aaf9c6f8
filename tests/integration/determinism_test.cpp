// Whole-pipeline determinism: two platforms built from the same seed make
// identical selections and identical first measurements.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

platform_config tiny_config(std::uint64_t seed) {
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.seed = seed;
  // Shrink further: determinism needs two platforms in memory.
  cfg.internet.regional_isp_count = 120;
  cfg.internet.business_count = 150;
  cfg.internet.hosting_count = 80;
  cfg.internet.education_count = 30;
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.servers.us_server_target = 120;
  cfg.servers.global_server_target = 600;
  cfg.topology_budgets = {{"us-west1", 25}};
  return cfg;
}

TEST(DeterminismTest, SelectionsIdenticalAcrossRuns) {
  clasp_platform a(tiny_config(2024));
  clasp_platform b(tiny_config(2024));

  const auto& sa = a.select_topology("us-west1");
  const auto& sb = b.select_topology("us-west1");
  EXPECT_EQ(sa.pilot.links.size(), sb.pilot.links.size());
  EXPECT_EQ(sa.links_traversed_by_servers, sb.links_traversed_by_servers);
  ASSERT_EQ(sa.selected.size(), sb.selected.size());
  for (std::size_t i = 0; i < sa.selected.size(); ++i) {
    EXPECT_EQ(sa.selected[i].server_id, sb.selected[i].server_id);
    EXPECT_EQ(sa.selected[i].far_side, sb.selected[i].far_side);
  }
}

TEST(DeterminismTest, CampaignMeasurementsIdentical) {
  clasp_platform a(tiny_config(5));
  clasp_platform b(tiny_config(5));
  const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                          hour_stamp::from_civil({2020, 5, 2}, 0)};
  a.start_topology_campaign("us-west1", window).run();
  b.start_topology_campaign("us-west1", window).run();

  const auto series_a = a.download_series("topology", "us-west1");
  const auto series_b = b.download_series("topology", "us-west1");
  ASSERT_EQ(series_a.series.size(), series_b.series.size());
  ASSERT_FALSE(series_a.series.empty());
  for (std::size_t i = 0; i < series_a.series.size(); ++i) {
    const ts_point_view pa = series_a.series[i]->points();
    const ts_point_view pb = series_b.series[i]->points();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(pa[j].at, pb[j].at);
      EXPECT_DOUBLE_EQ(pa[j].value, pb[j].value);
    }
  }
  EXPECT_DOUBLE_EQ(a.cloud().costs().total(), b.cloud().costs().total());
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentMeasurements) {
  clasp_platform a(tiny_config(11));
  clasp_platform b(tiny_config(12));
  const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                          hour_stamp::from_civil({2020, 5, 2}, 0)};
  a.start_topology_campaign("us-west1", window).run();
  b.start_topology_campaign("us-west1", window).run();
  // Not every number needs to differ, but the total spend almost surely
  // does (different fleets, different paths).
  EXPECT_NE(a.cloud().costs().total(), b.cloud().costs().total());
}

}  // namespace
}  // namespace clasp
