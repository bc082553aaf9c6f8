#include "clasp/selection.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "setup_reference.hpp"
#include "test_support.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_platform;

TEST(SelectionTest, WithdrawnServersAreNeverSelected) {
  // Candidates come from registry crawls, which filter withdrawn
  // servers; a selection run after churn must not pick them. Dedicated
  // platform: retirement mutates shared registry state.
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.internet.seed = 2024;
  cfg.servers = ::clasp::testing::small_server_config();
  cfg.topology_budgets = {{"us-west1", 40}};
  clasp_platform p(cfg);
  server_registry& reg = const_cast<server_registry&>(p.registry());

  // Withdraw a spread of the US fleet before selection runs.
  std::unordered_set<std::size_t> withdrawn;
  const auto us = reg.crawl("US");
  for (std::size_t i = 0; i < us.size(); i += 4) {
    reg.retire_server(us[i]);
    withdrawn.insert(us[i]);
  }
  ASSERT_FALSE(withdrawn.empty());

  const topology_selection_result& result = p.select_topology("us-west1");
  ASSERT_FALSE(result.selected.empty());
  for (const selected_server& s : result.selected) {
    EXPECT_FALSE(withdrawn.count(s.server_id))
        << "withdrawn server " << s.server_id << " was selected";
    EXPECT_FALSE(reg.server(s.server_id).withdrawn);
  }
}

TEST(SelectionTest, PilotAndSelectionShapes) {
  auto& p = small_platform();
  const topology_selection_result& result = p.select_topology("us-west1");

  EXPECT_GT(result.pilot.links.size(), 200u);
  EXPECT_GT(result.servers_probed, 100u);
  EXPECT_GT(result.links_traversed_by_servers, 10u);
  // One selected server per unique link, capped by the budget.
  EXPECT_LE(result.selected.size(), result.links_traversed_by_servers);
  EXPECT_LE(result.selected.size(), 40u);  // fixture budget
  EXPECT_GT(result.coverage(), 0.0);
  EXPECT_LE(result.coverage(), 1.0);
}

TEST(SelectionTest, SelectedServersCoverDistinctLinks) {
  auto& p = small_platform();
  const auto& result = p.select_topology("us-west1");
  std::unordered_set<std::uint32_t> far_sides;
  std::unordered_set<std::size_t> servers;
  for (const selected_server& s : result.selected) {
    EXPECT_TRUE(far_sides.insert(s.far_side.value()).second)
        << "duplicate link " << s.far_side.to_string();
    servers.insert(s.server_id);
    // Every covered link was seen in the pilot.
    EXPECT_TRUE(result.pilot.contains(s.far_side));
  }
  // A server may cover at most one link in the result.
  EXPECT_EQ(servers.size(), result.selected.size());
}

TEST(SelectionTest, PrefersDirectPeering) {
  auto& p = small_platform();
  const auto& result = p.select_topology("us-west1");
  ASSERT_FALSE(result.selected.empty());
  // Sorted by AS-path length: the first entries are direct peers.
  EXPECT_EQ(result.selected.front().as_path_len, 1u);
  for (std::size_t i = 1; i < result.selected.size(); ++i) {
    EXPECT_GE(result.selected[i].as_path_len,
              result.selected[i - 1].as_path_len);
  }
}

TEST(SelectionTest, SharedInterconnectFractionInPaperBand) {
  auto& p = small_platform();
  const auto& result = p.select_topology("us-west1");
  // Paper: 75.5%-91.6% of U.S. servers share interconnects. The scaled
  // fixture loosens the band slightly.
  EXPECT_GT(result.shared_interconnect_fraction, 0.55);
  EXPECT_LE(result.shared_interconnect_fraction, 1.0);
}

TEST(SelectionTest, CachedPerRegion) {
  auto& p = small_platform();
  const auto& a = p.select_topology("us-west1");
  const auto& b = p.select_topology("us-west1");
  EXPECT_EQ(&a, &b);
}

TEST(SelectionTest, RegionsDiffer) {
  auto& p = small_platform();
  const auto& west = p.select_topology("us-west1");
  const auto& east = p.select_topology("us-east4");
  // Different policies (visibility/concentration) must change the picture.
  EXPECT_NE(west.pilot.links.size(), east.pilot.links.size());
  EXPECT_GT(west.links_traversed_by_servers,
            east.links_traversed_by_servers);
}

TEST(SelectionTest, NeighborsAreRealAses) {
  auto& p = small_platform();
  const auto& result = p.select_topology("us-west1");
  for (const selected_server& s : result.selected) {
    EXPECT_TRUE(p.net().topo->find_as(s.neighbor).has_value());
    EXPECT_NE(s.neighbor, cloud_asn());
  }
}

// topology_selector::run (one hour_link_memo, the planner's prefix
// table, absorb's border verdict) against the run it replaced (no memo,
// a table built per run, find_border again after absorb), for the six
// Fig. 2 regions at the platform's pilot hour and at a later re-pilot
// hour. Everything the result reports must match value for value.
TEST(SelectionTest, MemoizedRunMatchesReferenceInSixRegions) {
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.internet.seed = 1;
  cfg.servers = ::clasp::testing::small_server_config();
  clasp_platform p(cfg);
  const topology_selector selector(&p.planner(), &p.view(), &p.registry());
  const topology_selection_config config;
  const hour_stamp pilot_at = topology_campaign_window().begin_at + (-72);
  for (const char* region : {"us-west1", "us-west2", "us-west4", "us-east1",
                             "us-east4", "us-central1"}) {
    const endpoint vm = p.cloud().vm_endpoint(
        p.cloud().create_vm(region, service_tier::premium));
    for (const hour_stamp at : {pilot_at, pilot_at + 24 * 75 + 13}) {
      SCOPED_TRACE(std::string(region) + " at hour " +
                   std::to_string(at.hours_since_epoch()));
      rng got_r(hash_tag(7, region));
      rng want_r(hash_tag(7, region));
      const topology_selection_result got =
          selector.run(vm, config, at, got_r);
      const topology_selection_result want = reference::select(
          p.planner(), p.view(), p.registry(), vm, config, at, want_r);

      EXPECT_EQ(got.pilot.traceroutes_run, want.pilot.traceroutes_run);
      ASSERT_EQ(got.pilot.links.size(), want.pilot.links.size());
      for (std::size_t i = 0; i < got.pilot.links.size(); ++i) {
        const border_observation& g = got.pilot.links[i];
        const border_observation& w = want.pilot.links[i];
        EXPECT_EQ(g.far_side, w.far_side);
        EXPECT_EQ(g.neighbor, w.neighbor);
        EXPECT_EQ(g.min_rtt.value, w.min_rtt.value);
        EXPECT_EQ(g.path_count, w.path_count);
      }
      EXPECT_EQ(got.servers_probed, want.servers_probed);
      EXPECT_EQ(got.links_traversed_by_servers,
                want.links_traversed_by_servers);
      EXPECT_EQ(got.shared_interconnect_fraction,
                want.shared_interconnect_fraction);
      ASSERT_EQ(got.selected.size(), want.selected.size());
      for (std::size_t i = 0; i < got.selected.size(); ++i) {
        const selected_server& g = got.selected[i];
        const selected_server& w = want.selected[i];
        EXPECT_EQ(g.server_id, w.server_id);
        EXPECT_EQ(g.far_side, w.far_side);
        EXPECT_EQ(g.neighbor, w.neighbor);
        EXPECT_EQ(g.as_path_len, w.as_path_len);
        EXPECT_EQ(g.rtt.value, w.rtt.value);
      }
      // Both runs drew the same number of values.
      EXPECT_EQ(got_r(), want_r());
    }
  }
}

TEST(SelectionTest, RttsArePlausible) {
  auto& p = small_platform();
  const auto& result = p.select_topology("us-west1");
  for (const selected_server& s : result.selected) {
    EXPECT_GT(s.rtt.value, 0.0);
    EXPECT_LT(s.rtt.value, 250.0);  // U.S. servers from a U.S. region
  }
}

}  // namespace
}  // namespace clasp
