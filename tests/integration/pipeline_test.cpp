// End-to-end integration: selection -> campaign -> analysis over the small
// fixture, checking that the paper's qualitative findings hold at reduced
// scale.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_platform;

// One shared two-week differential campaign on europe-west1.
std::pair<campaign_runner*, campaign_runner*> diff_campaign() {
  static auto runners = [] {
    auto& p = small_platform();
    const hour_range window{hour_stamp::from_civil({2020, 8, 1}, 0),
                            hour_stamp::from_civil({2020, 8, 15}, 0)};
    auto pair = p.start_differential_campaign("europe-west1", window);
    pair.first->run();
    pair.second->run();
    return pair;
  }();
  return runners;
}

TEST(PipelineTest, DifferentialCampaignProducesPairedSeries) {
  auto& p = small_platform();
  diff_campaign();
  const auto prem = p.download_series("diff-premium", "europe-west1");
  const auto stnd = p.download_series("diff-standard", "europe-west1");
  EXPECT_FALSE(prem.series.empty());
  EXPECT_EQ(prem.series.size(), stnd.series.size());
}

TEST(PipelineTest, StandardTierGenerallyFasterForLossyPremiumTargets) {
  // The paper's headline differential finding: for the selected servers
  // the standard tier's download throughput is generally higher.
  auto& p = small_platform();
  diff_campaign();
  const auto prem = p.download_series("diff-premium", "europe-west1");

  std::size_t negative = 0, total = 0, servers = 0;
  for (const ts_series* ps : prem.series) {
    tag_set std_tags = ps->tags();
    std_tags["campaign"] = "diff-standard";
    std_tags["tier"] = "standard";
    const ts_series* ss = p.store().find("download_mbps", std_tags);
    if (ss == nullptr) continue;
    ++servers;
    for (const double d : relative_differences(*ps, *ss)) {
      ++total;
      negative += d < 0 ? 1 : 0;
    }
  }
  ASSERT_GT(servers, 0u);
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(negative) / static_cast<double>(total), 0.5)
      << "standard tier should be faster in most measurements";
}

TEST(PipelineTest, MeasuredLatencyConsistentWithPretestClasses) {
  // Fig. 5c: "the latency measured in speed tests was consistent with the
  // results we obtained in the preliminary tests" — servers classified
  // premium_lower / standard_lower in the pre-test should show the same
  // sign in the campaign's hourly latency comparison.
  auto& p = small_platform();
  diff_campaign();
  const auto& selection = p.select_differential("europe-west1");

  std::size_t checked = 0, consistent = 0;
  for (const auto& chosen : selection.selected) {
    if (chosen.cls == latency_class::comparable) continue;
    tag_set tags = {{"campaign", "diff-premium"},
                    {"region", "europe-west1"},
                    {"tier", "premium"},
                    {"server", std::to_string(chosen.server_id)}};
    const speed_server& server = p.registry().server(chosen.server_id);
    tags["network"] = std::to_string(server.network.value);
    tags["city"] = p.net().geo->city(server.city).name;
    const ts_series* ps = p.store().find("latency_ms", tags);
    tag_set std_tags = tags;
    std_tags["campaign"] = "diff-standard";
    std_tags["tier"] = "standard";
    const ts_series* ss = p.store().find("latency_ms", std_tags);
    if (ps == nullptr || ss == nullptr) continue;
    ++checked;
    const auto deltas = relative_differences(*ps, *ss);
    std::size_t premium_lower_hours = 0;
    for (const double d : deltas) premium_lower_hours += d < 0 ? 1 : 0;
    const bool measured_premium_lower =
        premium_lower_hours * 2 > deltas.size();
    if (measured_premium_lower ==
        (chosen.cls == latency_class::premium_lower)) {
      ++consistent;
    }
  }
  if (checked == 0) GTEST_SKIP() << "no big-delta servers selected";
  EXPECT_GE(consistent * 4, checked * 3)
      << consistent << " of " << checked << " classes consistent";
}

TEST(PipelineTest, DetectorFindsPlantedCongestion) {
  auto& p = small_platform();
  diff_campaign();
  // Run the V_H detector against ground truth for every series of the
  // standard campaign and aggregate.
  const auto data = p.download_series("diff-standard", "europe-west1");
  detector_validation total;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    tag_set gt_tags = data.series[i]->tags();
    const ts_series* gt = p.store().find("gt_episode", gt_tags);
    ASSERT_NE(gt, nullptr);
    const auto v =
        validate_detector(*data.series[i], *gt, data.tz[i], 0.5);
    total.true_positive += v.true_positive;
    total.false_positive += v.false_positive;
    total.false_negative += v.false_negative;
    total.true_negative += v.true_negative;
  }
  // The detector is deliberately conservative (H=0.5); it should still
  // catch a good share of planted episodes with usable precision.
  if (total.true_positive + total.false_negative > 0) {
    EXPECT_GT(total.recall(), 0.2);
  }
  if (total.true_positive + total.false_positive > 0) {
    EXPECT_GT(total.precision(), 0.2);
  }
}

TEST(PipelineTest, CostsAreInPaperBallpark) {
  auto& p = small_platform();
  diff_campaign();
  // The fixture runs a 3-day topology campaign + 2x14-day differential
  // pair; spend must be positive and dominated by egress+VM as the paper
  // reports.
  const cost_report& costs = p.cloud().costs();
  EXPECT_GT(costs.total(), 10.0);
  EXPECT_GT(costs.egress_usd + costs.vm_usd, costs.storage_usd);
}

TEST(PipelineTest, GroundTruthEpisodesPresentInWindow) {
  auto& p = small_platform();
  diff_campaign();
  const auto data = p.download_series("diff-standard", "europe-west1",
                                      "gt_episode");
  std::size_t active = 0, total = 0;
  for (const ts_series* s : data.series) {
    for (const ts_point pt : s->points()) {
      ++total;
      if (pt.value > 0.5) ++active;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(active, 0u) << "differential targets should see episodes";
  EXPECT_LT(static_cast<double>(active) / total, 0.5);
}

}  // namespace
}  // namespace clasp
