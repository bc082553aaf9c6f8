// Oracle for the one-pass traceroute: hop RTTs, addresses and RNG draws
// must equal the per-router re-walk's (tests/setup_reference.hpp) bit for
// bit, with and without an hour_link_memo.
#include <gtest/gtest.h>

#include "probes/traceroute.hpp"
#include "setup_reference.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

// A dedicated small internet with one VM host attached, so paths exist
// with every combination of source and destination access links.
internet& oracle_internet() {
  static internet* net = [] {
    internet_config cfg = ::clasp::testing::small_internet_config();
    cfg.seed = 4321;
    auto* n = new internet(generate_internet(cfg));
    rng r(17);
    n->attach_host(n->cloud, n->geo->city_by_name("Ashburn, VA").id,
                   host_flavor::vm, mbps{10000.0}, r);
    return n;
  }();
  return *net;
}

class TracerouteOracle : public ::testing::Test {
 protected:
  TracerouteOracle()
      : net_(oracle_internet()),
        planner_(&net_),
        view_(&net_),
        probe_(&planner_, &view_, 0.02) {
    const city_id region = net_.geo->city_by_name("Ashburn, VA").id;
    const host_index vm_host{
        static_cast<std::uint32_t>(net_.topo->host_count() - 1)};
    const endpoint vm = planner_.endpoint_of_host(vm_host);
    const endpoint pop{
        net_.cloud, region,
        net_.topo->router_at(*net_.topo->router_of(net_.cloud, region))
            .loopback,
        std::nullopt};
    for (std::size_t i = 0; i < 12; ++i) {
      const endpoint vp =
          planner_.endpoint_of_host(net_.vantage_points[i * 7]);
      const as_info& owner = net_.topo->as_at(vp.owner);
      const ipv4_addr bare_addr = owner.prefixes.back().prefix.address_at(1);
      const endpoint bare = planner_.endpoint_of_address(bare_addr);
      for (const service_tier tier :
           {service_tier::premium, service_tier::standard}) {
        paths_.push_back(planner_.from_cloud(vm, vp, tier));    // src + dst
        paths_.push_back(planner_.from_cloud(vm, bare, tier));  // src only
        paths_.push_back(planner_.to_cloud(vp, pop, tier));     // src only
        paths_.push_back(planner_.from_cloud(pop, vp, tier));   // dst only
        paths_.push_back(planner_.from_cloud(pop, bare, tier));  // neither
      }
    }
  }

  static void expect_same(const traceroute_result& got,
                          const traceroute_result& want) {
    ASSERT_EQ(got.hops.size(), want.hops.size());
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.at, want.at);
    EXPECT_EQ(got.reached, want.reached);
    for (std::size_t i = 0; i < got.hops.size(); ++i) {
      EXPECT_EQ(got.hops[i].ttl, want.hops[i].ttl);
      EXPECT_EQ(got.hops[i].address, want.hops[i].address);
      EXPECT_EQ(got.hops[i].rtt.value, want.hops[i].rtt.value) << "hop " << i;
    }
  }

  internet& net_;
  route_planner planner_;
  network_view view_;
  prober probe_;
  std::vector<route_path> paths_;
};

TEST_F(TracerouteOracle, PathsCoverEveryAccessCombination) {
  bool both = false, src_only = false, dst_only = false, neither = false;
  for (const route_path& p : paths_) {
    both |= p.src_access && p.dst_access;
    src_only |= p.src_access && !p.dst_access;
    dst_only |= !p.src_access && p.dst_access;
    neither |= !p.src_access && !p.dst_access;
  }
  EXPECT_TRUE(both && src_only && dst_only && neither);
}

TEST_F(TracerouteOracle, HopsMatchPerRouterRewalk) {
  for (int h = 0; h < 4; ++h) {
    const hour_stamp at = hour_stamp::from_civil({2020, 6, 1}, 0) + 7 * h;
    hour_link_memo memo(&view_, at);
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      rng plain_r(100 + p), memo_r(100 + p), want_r(100 + p);
      const traceroute_result want =
          reference::traceroute(view_, paths_[p], at, want_r);
      expect_same(probe_.traceroute(paths_[p], at, plain_r), want);
      expect_same(probe_.traceroute(paths_[p], at, memo_r, &memo), want);
      // Same number of draws: the streams continue in step.
      const std::uint64_t next = want_r();
      EXPECT_EQ(plain_r(), next);
      EXPECT_EQ(memo_r(), next);
    }
  }
}

TEST_F(TracerouteOracle, RouterDelaysMatchPerRouterSum) {
  std::vector<route_path> paths = paths_;
  // More routers than transit hops: the last delays stop growing by hops.
  route_path extended = paths_.front();
  extended.routers.push_back(extended.routers.back());
  extended.routers.push_back(extended.routers.front());
  paths.push_back(extended);
  const hour_stamp at = hour_stamp::from_civil({2020, 7, 4}, 19);
  hour_link_memo memo(&view_, at);
  std::vector<millis> plain, memoized;
  for (const route_path& path : paths) {
    view_.router_delays(path, at, plain);
    view_.router_delays(path, at, memoized, &memo);
    ASSERT_EQ(plain.size(), path.routers.size());
    ASSERT_EQ(memoized.size(), path.routers.size());
    for (std::size_t i = 0; i < path.routers.size(); ++i) {
      const double want =
          reference::delay_to_router(view_, path, i, at).value;
      EXPECT_EQ(plain[i].value, want) << "router " << i;
      EXPECT_EQ(memoized[i].value, want) << "router " << i;
      EXPECT_EQ(view_.delay_to_router(path, i, at).value, want);
    }
  }
}

TEST_F(TracerouteOracle, MemoMatchesLinkStateAndRejectsOtherHoursOrViews) {
  const hour_stamp at = hour_stamp::from_civil({2020, 8, 14}, 2);
  hour_link_memo memo(&view_, at);
  for (const route_path& path : paths_) {
    const path_metrics want = view_.evaluate(path, at);
    const path_metrics got = view_.evaluate(path, at, &memo);
    EXPECT_EQ(got.rtt.value, want.rtt.value);
    EXPECT_EQ(got.base_rtt.value, want.base_rtt.value);
    EXPECT_EQ(got.loss, want.loss);
    EXPECT_EQ(got.bottleneck.value, want.bottleneck.value);
    EXPECT_EQ(got.bottleneck_link, want.bottleneck_link);
    EXPECT_EQ(got.episode, want.episode);
  }
  std::vector<millis> out;
  EXPECT_THROW(view_.router_delays(paths_.front(), at + 1, out, &memo),
               invalid_argument_error);
  const network_view other(&net_);
  EXPECT_THROW(other.router_delays(paths_.front(), at, out, &memo),
               invalid_argument_error);
  rng r(1);
  EXPECT_THROW(probe_.traceroute(paths_.front(), at + 1, r, &memo),
               invalid_argument_error);
  EXPECT_THROW(memo.state(link_index{static_cast<std::uint32_t>(
                              net_.topo->link_count())},
                          link_dir::a_to_b),
               invalid_argument_error);
}

}  // namespace
}  // namespace clasp
