#include "netsim/routing.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_internet;

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : net_(small_internet()), planner_(&net_) {
    region_city_ = net_.geo->city_by_name("Moncks Corner, SC").id;
    const auto region_router = net_.topo->router_of(net_.cloud, region_city_);
    vm_ = endpoint{net_.cloud, region_city_,
                   net_.topo->router_at(*region_router).loopback,
                   std::nullopt};
  }

  // A vantage point whose AS does not peer directly (transit path).
  endpoint transit_vp() const {
    for (const host_index h : net_.vantage_points) {
      const host_info& info = net_.topo->host_at(h);
      if (!net_.topo->as_at(info.owner).peers_with_cloud) {
        return planner_.endpoint_of_host(h);
      }
    }
    throw state_error("no transit-only VP in fixture");
  }

  endpoint peering_vp() const {
    for (const host_index h : net_.vantage_points) {
      const host_info& info = net_.topo->host_at(h);
      if (net_.topo->as_at(info.owner).peers_with_cloud) {
        return planner_.endpoint_of_host(h);
      }
    }
    throw state_error("no peering VP in fixture");
  }

  // Validate structural invariants of any path.
  void check_path(const route_path& p) const {
    ASSERT_FALSE(p.routers.empty());
    ASSERT_EQ(p.transit_hops.size(), p.routers.size() - 1);
    for (std::size_t i = 0; i + 1 < p.routers.size(); ++i) {
      const link_info& l = net_.topo->link_at(p.transit_hops[i].link);
      const router_index from =
          (p.transit_hops[i].dir == link_dir::a_to_b) ? l.a : l.b;
      const router_index to =
          (p.transit_hops[i].dir == link_dir::a_to_b) ? l.b : l.a;
      EXPECT_EQ(from, p.routers[i]) << "hop " << i << " disconnected";
      EXPECT_EQ(to, p.routers[i + 1]) << "hop " << i << " disconnected";
    }
  }

  internet& net_;
  route_planner planner_;
  city_id region_city_;
  endpoint vm_;
};

TEST_F(RoutingTest, NullNetRejected) {
  EXPECT_THROW(route_planner(nullptr), invalid_argument_error);
}

// Topology selection reads the planner's prefix table instead of building
// its own: it must answer as a freshly built table does, at every prefix
// edge (first, last and the addresses just outside) and in unrouted space.
TEST_F(RoutingTest, PrefixTableMatchesAFreshBuild) {
  const prefix2as_table fresh = net_.topo->build_prefix2as();
  const prefix2as_table& table = planner_.prefix2as();
  EXPECT_EQ(table.size(), fresh.size());
  std::size_t probed = 0;
  const auto expect_same = [&](std::uint64_t a) {
    if (a > 0xFFFFFFFFull) return;
    const ipv4_addr addr{static_cast<std::uint32_t>(a)};
    ASSERT_EQ(table.lookup(addr), fresh.lookup(addr)) << addr.to_string();
    ++probed;
  };
  for (const auto& [prefix, origin] : fresh.entries()) {
    const std::uint64_t first = prefix.base().value();
    const std::uint64_t last = first + prefix.size() - 1;
    expect_same(first);
    expect_same(last);
    if (first > 0) expect_same(first - 1);
    expect_same(last + 1);
  }
  for (const char* unrouted : {"0.0.0.0", "8.8.8.8", "255.255.255.255"}) {
    const ipv4_addr addr = ipv4_addr::parse(unrouted);
    EXPECT_EQ(table.lookup(addr), fresh.lookup(addr));
  }
  EXPECT_GE(probed, 2 * fresh.size());
}

TEST_F(RoutingTest, ToCloudPremiumIsConnected) {
  const route_path p =
      planner_.to_cloud(transit_vp(), vm_, service_tier::premium);
  check_path(p);
  EXPECT_TRUE(p.cloud_edge.has_value());
  EXPECT_TRUE(p.src_access.has_value());
  EXPECT_FALSE(p.dst_access.has_value());  // the PoP endpoint is not a host
  // Path ends at the region's cloud router.
  const router_info& last = net_.topo->router_at(p.routers.back());
  EXPECT_EQ(last.owner, net_.cloud);
  EXPECT_EQ(last.city, region_city_);
}

TEST_F(RoutingTest, StandardTierEntersAtRegionPop) {
  const endpoint src = transit_vp();
  const route_path p = planner_.to_cloud(src, vm_, service_tier::standard);
  check_path(p);
  ASSERT_TRUE(p.cloud_edge.has_value());
  const link_info& edge = net_.topo->link_at(*p.cloud_edge);
  const router_index cloud_side =
      (net_.topo->owner_of(edge.a) == net_.cloud) ? edge.a : edge.b;
  EXPECT_EQ(net_.topo->router_at(cloud_side).city, region_city_)
      << "standard tier must cross at the region PoP";
}

TEST_F(RoutingTest, PremiumEntersNearSourceForFarSources) {
  // A VP abroad reaching a U.S. region on premium should enter the cloud
  // at a PoP much closer to the source than to the region. Concentration
  // policy and multi-continent AS footprints legitimately override this,
  // so pin the policy to pure cold-potato and use a single-city AS.
  planner_.set_region_policy(region_city_, {0.0, 1.0});
  endpoint src{};
  bool found = false;
  for (const host_index h : net_.vantage_points) {
    const host_info& info = net_.topo->host_at(h);
    const as_info& owner = net_.topo->as_at(info.owner);
    if (net_.geo->city(info.city).country != "US" &&
        owner.peers_with_cloud && owner.presence.size() == 1) {
      src = planner_.endpoint_of_host(h);
      found = true;
      break;
    }
  }
  if (!found) GTEST_SKIP() << "no international peering VP in fixture";

  const route_path p = planner_.to_cloud(src, vm_, service_tier::premium);
  planner_.set_region_policy(region_city_, {});
  ASSERT_TRUE(p.cloud_edge.has_value());
  const link_info& edge = net_.topo->link_at(*p.cloud_edge);
  const router_index cloud_side =
      (net_.topo->owner_of(edge.a) == net_.cloud) ? edge.a : edge.b;
  const city_info& entry = net_.geo->city(net_.topo->router_at(cloud_side).city);
  const double to_src = haversine_km(entry, net_.geo->city(src.city));
  const double to_region =
      haversine_km(entry, net_.geo->city(region_city_));
  EXPECT_LT(to_src, to_region);
}

TEST_F(RoutingTest, FromCloudMirrorsStructure) {
  const endpoint dst = peering_vp();
  const route_path p = planner_.from_cloud(vm_, dst, service_tier::premium);
  check_path(p);
  EXPECT_TRUE(p.cloud_edge.has_value());
  EXPECT_TRUE(p.dst_access.has_value());
  const router_info& first = net_.topo->router_at(p.routers.front());
  EXPECT_EQ(first.owner, net_.cloud);
  EXPECT_EQ(first.city, region_city_);
  // Last router belongs to the destination AS and is its attach router.
  EXPECT_EQ(p.routers.back(), net_.topo->host_at(*dst.host).attach);
}

TEST_F(RoutingTest, AsPathDedupsAndStartsOrEndsAtCloud) {
  const route_path p =
      planner_.to_cloud(transit_vp(), vm_, service_tier::standard);
  const auto ases = planner_.as_path(p);
  ASSERT_GE(ases.size(), 2u);
  EXPECT_EQ(ases.back(), cloud_asn());
  for (std::size_t i = 1; i < ases.size(); ++i) {
    EXPECT_NE(ases[i], ases[i - 1]);
  }
}

TEST_F(RoutingTest, DirectPeeringHasShorterAsPath) {
  const route_path direct =
      planner_.to_cloud(peering_vp(), vm_, service_tier::premium);
  const route_path via_transit =
      planner_.to_cloud(transit_vp(), vm_, service_tier::premium);
  EXPECT_EQ(planner_.as_hops_to_destination(direct), 1u);
  EXPECT_EQ(planner_.as_hops_to_destination(via_transit), 2u);
}

TEST_F(RoutingTest, PathsAreDeterministic) {
  const endpoint src = transit_vp();
  const route_path a = planner_.to_cloud(src, vm_, service_tier::premium);
  const route_path b = planner_.to_cloud(src, vm_, service_tier::premium);
  ASSERT_EQ(a.routers.size(), b.routers.size());
  for (std::size_t i = 0; i < a.routers.size(); ++i) {
    EXPECT_EQ(a.routers[i], b.routers[i]);
  }
}

TEST_F(RoutingTest, EndpointOfAddressResolvesAnchors) {
  // Take a host prefix of a known AS and resolve an address inside it.
  const as_index cox = *net_.topo->find_as(asn{22773});
  const announced_prefix& p = net_.topo->as_at(cox).prefixes[1];
  const endpoint e = planner_.endpoint_of_address(p.prefix.address_at(7));
  EXPECT_EQ(e.owner, cox);
  EXPECT_EQ(e.city, p.anchor);
  EXPECT_FALSE(e.host.has_value());
}

TEST_F(RoutingTest, EndpointOfUnroutedAddressThrows) {
  EXPECT_THROW(planner_.endpoint_of_address(ipv4_addr::parse("203.0.113.1")),
               not_found_error);
}

TEST_F(RoutingTest, CloudSourceRejected) {
  EXPECT_THROW(planner_.to_cloud(vm_, vm_, service_tier::premium),
               invalid_argument_error);
  EXPECT_THROW(planner_.from_cloud(vm_, vm_, service_tier::premium),
               invalid_argument_error);
}

TEST_F(RoutingTest, RegionPolicyDefaultsAndOverrides) {
  const egress_policy def = planner_.region_policy(city_id{0});
  EXPECT_NEAR(def.concentration, 0.2, 1e-12);
  planner_.set_region_policy(region_city_, {0.9, 0.5});
  EXPECT_NEAR(planner_.region_policy(region_city_).concentration, 0.9, 1e-12);
  planner_.set_region_policy(region_city_, {});  // restore defaults
}

TEST_F(RoutingTest, TierToString) {
  EXPECT_STREQ(to_string(service_tier::premium), "premium");
  EXPECT_STREQ(to_string(service_tier::standard), "standard");
}

// Property: over many vantage points, every premium and standard path is
// structurally valid and crosses exactly one cloud edge.
class RoutingPropertyTest : public RoutingTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(RoutingPropertyTest, AllPathsValid) {
  const std::size_t idx =
      static_cast<std::size_t>(GetParam()) * 17 % net_.vantage_points.size();
  const endpoint src =
      planner_.endpoint_of_host(net_.vantage_points[idx]);
  for (const service_tier tier :
       {service_tier::premium, service_tier::standard}) {
    const route_path p = planner_.to_cloud(src, vm_, tier);
    check_path(p);
    EXPECT_TRUE(p.cloud_edge.has_value());
    std::size_t cloud_crossings = 0;
    for (const path_hop& h : p.transit_hops) {
      const link_info& l = net_.topo->link_at(h.link);
      if (l.kind != link_kind::interdomain) continue;
      if (net_.topo->owner_of(l.a) == net_.cloud ||
          net_.topo->owner_of(l.b) == net_.cloud) {
        ++cloud_crossings;
      }
    }
    EXPECT_EQ(cloud_crossings, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(ManyVantagePoints, RoutingPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace clasp
