// vantage_swarm unit + integration tests: presets, membership churn,
// per-probe credits and rate limits, account faults passing through, the
// ledger wire format, the coverage-aware differential scheduler, and the
// checkpoint round-trip of both ledgers.
#include "clasp/swarm.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "clasp/differential.hpp"
#include "obs/export.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;

using ::clasp::testing::small_internet;
using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

// A swarm whose churn chain is pinned fully online (join 1, leave 0), so
// credit/rate tests see only the budget machinery.
swarm_config always_online() {
  swarm_config cfg;
  cfg.enabled = true;
  cfg.join_rate = 1.0;
  cfg.leave_rate = 0.0;
  return cfg;
}

hour_range pretest_days(int days) {
  return {hour_stamp::from_civil({2020, 7, 10}, 0),
          hour_stamp::from_civil({2020, 7, 10}, 0) + days * 24};
}

class SwarmTest : public ::testing::Test {
 protected:
  SwarmTest() : net_(small_internet()), planner_(&net_), view_(&net_) {
    const city_id region = net_.geo->city_by_name("St. Ghislain").id;
    const auto router = net_.topo->router_of(net_.cloud, region);
    target_ = endpoint{net_.cloud, region,
                       net_.topo->router_at(*router).loopback, std::nullopt};
  }

  internet& net_;
  route_planner planner_;
  network_view view_;
  endpoint target_;
};

TEST_F(SwarmTest, PresetsCoverTheThreeLevels) {
  EXPECT_FALSE(swarm_config::preset("off").enabled);
  const swarm_config low = swarm_config::preset("low");
  EXPECT_TRUE(low.enabled);
  EXPECT_GT(low.join_rate, low.leave_rate);  // mostly-online population
  EXPECT_GT(low.credits_per_probe, 0u);
  EXPECT_GT(low.rate_limit_per_hour, 0u);
  const swarm_config high = swarm_config::preset("high");
  EXPECT_TRUE(high.enabled);
  EXPECT_GT(high.leave_rate, high.join_rate);  // mostly-offline population
  EXPECT_LT(high.credits_per_probe, low.credits_per_probe);
  EXPECT_LT(high.rate_limit_per_hour, low.rate_limit_per_hour);
  EXPECT_LT(high.coverage_target, low.coverage_target);
  EXPECT_THROW(swarm_config::preset("medium"), invalid_argument_error);
}

TEST_F(SwarmTest, BadConfigRejected) {
  swarm_config cfg = always_online();
  cfg.join_rate = 1.5;
  EXPECT_THROW(vantage_swarm(&planner_, &view_, cfg), invalid_argument_error);
  cfg = always_online();
  cfg.coverage_target = -0.1;
  EXPECT_THROW(vantage_swarm(&planner_, &view_, cfg), invalid_argument_error);
}

TEST_F(SwarmTest, DisabledSwarmIsTheFixedPanel) {
  vantage_swarm swarm(&planner_, &view_);
  EXPECT_FALSE(swarm.enabled());
  swarm.plan(pretest_days(3));
  EXPECT_EQ(swarm.active_probes(pretest_days(3).begin_at),
            swarm.probes().size());
  EXPECT_TRUE(swarm.online(0, pretest_days(3).begin_at + 40));
  rng r(1);
  const auto result = swarm.try_probe(0, target_, service_tier::premium,
                                      pretest_days(3).begin_at, r);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->rtt.value, 0.0);
}

TEST_F(SwarmTest, MembershipIsDeterministicPerSeed) {
  swarm_config cfg = swarm_config::preset("low");
  cfg.seed = 5;
  vantage_swarm a(&planner_, &view_, cfg, {}, 99);
  vantage_swarm b(&planner_, &view_, cfg, {}, 99);
  const hour_range window = pretest_days(4);
  a.plan(window);
  b.plan(window);
  std::size_t offline_hours = 0;
  for (std::size_t p = 0; p < a.probes().size(); ++p) {
    for (hour_stamp t = window.begin_at; t < window.end_at; t = t + 1) {
      EXPECT_EQ(a.online(p, t), b.online(p, t));
      offline_hours += !a.online(p, t);
    }
  }
  EXPECT_GT(offline_hours, 0u);  // the low preset really churns
  // A different platform stream seed decorrelates the swarm.
  vantage_swarm c(&planner_, &view_, cfg, {}, 100);
  c.plan(window);
  std::size_t differs = 0;
  for (std::size_t p = 0; p < a.probes().size(); ++p) {
    for (hour_stamp t = window.begin_at; t < window.end_at; t = t + 1) {
      differs += a.online(p, t) != c.online(p, t);
    }
  }
  EXPECT_GT(differs, 0u);
}

TEST_F(SwarmTest, OfflineProbeRefusesWithoutSpending) {
  swarm_config cfg = always_online();
  cfg.join_rate = 0.0;  // stationary distribution: everyone offline
  cfg.leave_rate = 1.0;
  vantage_swarm swarm(&planner_, &view_, cfg);
  swarm.plan(pretest_days(2));
  EXPECT_EQ(swarm.active_probes(pretest_days(2).begin_at), 0u);
  rng r(2);
  vantage_swarm::refusal why{};
  const auto result = swarm.try_probe(3, target_, service_tier::premium,
                                      pretest_days(2).begin_at, r, &why);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(why, vantage_swarm::refusal::offline);
  EXPECT_EQ(swarm.credits_spent(), 0u);
  EXPECT_EQ(swarm.platform().used_in_month(pretest_days(2).begin_at), 0u);
}

TEST_F(SwarmTest, CreditsEnforcedPerProbeWithMonthlyRollover) {
  swarm_config cfg = always_online();
  cfg.credits_per_probe = 2;
  vantage_swarm swarm(&planner_, &view_, cfg);
  swarm.plan({hour_stamp::from_civil({2020, 7, 10}, 0),
              hour_stamp::from_civil({2020, 8, 10}, 0)});
  rng r(3);
  const hour_stamp july = hour_stamp::from_civil({2020, 7, 10}, 0);
  EXPECT_EQ(swarm.credits_remaining(0, july), 2u);
  EXPECT_TRUE(swarm.try_probe(0, target_, service_tier::premium, july, r));
  EXPECT_TRUE(
      swarm.try_probe(0, target_, service_tier::standard, july + 1, r));
  EXPECT_EQ(swarm.credits_remaining(0, july), 0u);
  vantage_swarm::refusal why{};
  EXPECT_FALSE(
      swarm.try_probe(0, target_, service_tier::premium, july + 2, r, &why));
  EXPECT_EQ(why, vantage_swarm::refusal::out_of_credits);
  // Other probes keep their own budget; a new month restores it.
  EXPECT_EQ(swarm.credits_remaining(1, july), 2u);
  EXPECT_TRUE(swarm.try_probe(1, target_, service_tier::premium, july, r));
  const hour_stamp august = hour_stamp::from_civil({2020, 8, 2}, 0);
  EXPECT_EQ(swarm.credits_remaining(0, august), 2u);
  EXPECT_TRUE(swarm.try_probe(0, target_, service_tier::premium, august, r));
  EXPECT_EQ(swarm.credits_spent(), 4u);
}

TEST_F(SwarmTest, RateLimitWindowRollsOverHourly) {
  swarm_config cfg = always_online();
  cfg.rate_limit_per_hour = 1;
  vantage_swarm swarm(&planner_, &view_, cfg);
  swarm.plan(pretest_days(2));
  rng r(4);
  const hour_stamp t = pretest_days(2).begin_at;
  EXPECT_TRUE(swarm.try_probe(0, target_, service_tier::premium, t, r));
  vantage_swarm::refusal why{};
  EXPECT_FALSE(swarm.try_probe(0, target_, service_tier::standard, t, r, &why));
  EXPECT_EQ(why, vantage_swarm::refusal::rate_limited);
  EXPECT_EQ(swarm.rate_limited_count(), 1u);
  // A different probe has its own slot; the next hour resets everyone.
  EXPECT_TRUE(swarm.try_probe(1, target_, service_tier::premium, t, r));
  EXPECT_TRUE(swarm.try_probe(0, target_, service_tier::standard, t + 1, r));
}

TEST_F(SwarmTest, AccountFaultsPassThrough) {
  speedchecker_config account;
  account.monthly_quota = 1;
  vantage_swarm swarm(&planner_, &view_, always_online(), account);
  swarm.plan(pretest_days(2));
  rng r(5);
  const hour_stamp t = pretest_days(2).begin_at;
  EXPECT_TRUE(swarm.platform_admissible(t));
  EXPECT_TRUE(swarm.try_probe(0, target_, service_tier::premium, t, r));
  EXPECT_FALSE(swarm.platform_admissible(t + 1));
  EXPECT_THROW(swarm.try_probe(1, target_, service_tier::premium, t + 1, r),
               budget_exceeded_error);

  // Probing at exactly the retirement hour is a state_error; one hour
  // before still serves.
  vantage_swarm fresh(&planner_, &view_, always_online());
  const hour_stamp retirement = fresh.platform().config().retirement;
  fresh.plan({retirement + (-24), retirement + 24});
  EXPECT_TRUE(
      fresh.try_probe(0, target_, service_tier::premium, retirement + (-1), r));
  EXPECT_THROW(
      fresh.try_probe(0, target_, service_tier::premium, retirement, r),
      state_error);
}

TEST_F(SwarmTest, LedgersRoundTripTheWireFormat) {
  swarm_config cfg = always_online();
  cfg.credits_per_probe = 10;
  vantage_swarm swarm(&planner_, &view_, cfg);
  swarm.plan(pretest_days(2));
  rng r(6);
  const hour_stamp t = pretest_days(2).begin_at;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        swarm.try_probe(static_cast<std::size_t>(i % 2), target_,
                        service_tier::premium, t + i, r));
  }
  binary_writer out;
  swarm.save_state(out);
  out.varint(0xC0FFEEu);  // sentinel: load must consume exactly the blob

  vantage_swarm restored(&planner_, &view_, cfg);
  binary_reader in(out.bytes());
  restored.load_state(in);
  EXPECT_EQ(in.varint(), 0xC0FFEEu);
  EXPECT_EQ(restored.credits_spent(), 5u);
  EXPECT_EQ(restored.credits_remaining(0, t), 7u);
  EXPECT_EQ(restored.credits_remaining(1, t), 8u);
  EXPECT_EQ(restored.platform().used_in_month(t), 5u);

  // skip_state walks the same layout without applying it.
  binary_reader skip(out.bytes());
  vantage_swarm::skip_state(skip);
  EXPECT_EQ(skip.varint(), 0xC0FFEEu);
}

TEST_F(SwarmTest, HostileProbeCountInLedgerIsTypedError) {
  // A CRC-valid checkpoint ledger whose month claims 2^60 probe credits:
  // load_state must refuse the count before sizing anything.
  binary_writer out;
  out.varint(0);  // speedchecker account months
  out.varint(0);  // credits spent
  out.varint(1);  // per-probe credit months
  out.svarint(5);
  out.varint(std::uint64_t{1} << 60);
  vantage_swarm swarm(&planner_, &view_, always_online());
  binary_reader in(out.bytes());
  EXPECT_THROW(swarm.load_state(in), invalid_argument_error);
}

// --- scheduler integration through differential_selector ---

differential_config small_pretest(std::size_t min_measurements = 20) {
  differential_config cfg;
  cfg.pretest_window = pretest_days(3);
  cfg.min_measurements = min_measurements;
  return cfg;
}

void expect_same_selection(const differential_selection_result& a,
                           const differential_selection_result& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].city.value, b.candidates[i].city.value);
    EXPECT_EQ(a.candidates[i].network.value, b.candidates[i].network.value);
    EXPECT_EQ(a.candidates[i].cls, b.candidates[i].cls);
    EXPECT_EQ(a.candidates[i].median_premium_ms,
              b.candidates[i].median_premium_ms);
    EXPECT_EQ(a.candidates[i].median_standard_ms,
              b.candidates[i].median_standard_ms);
    EXPECT_EQ(a.candidates[i].samples, b.candidates[i].samples);
  }
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].server_id, b.selected[i].server_id);
    EXPECT_EQ(a.selected[i].cls, b.selected[i].cls);
  }
  EXPECT_EQ(a.tuples_measured, b.tuples_measured);
}

TEST(SwarmSelectionTest, SwarmOffMatchesTheLegacyFixedPanel) {
  // The swarm-off pre-test must be byte-identical no matter how the
  // selector is invoked: legacy 3-arg, explicit null swarm, or a disabled
  // persistent swarm — all consume identical RNG draws and produce
  // identical selections.
  auto& p = ::clasp::testing::small_platform();
  differential_selector selector(&p.planner(), &p.view(), &p.registry());
  const differential_config cfg = small_pretest();
  const gcp_cloud::vm_id vm =
      p.cloud().create_vm("us-east1", service_tier::premium);
  const endpoint target = p.cloud().vm_endpoint(vm);

  rng r1(7), r2(7), r3(7);
  const auto legacy = selector.run(target, cfg, r1);
  const auto null_swarm = selector.run(target, cfg, r2, nullptr);
  vantage_swarm disabled(&p.planner(), &p.view(), swarm_config{},
                         cfg.platform);
  const auto off_swarm = selector.run(target, cfg, r3, &disabled);
  expect_same_selection(legacy, null_swarm);
  expect_same_selection(legacy, off_swarm);
  // And the three rngs ended in the same state.
  const double d1 = r1.uniform(), d2 = r2.uniform(), d3 = r3.uniform();
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d2, d3);
  EXPECT_FALSE(legacy.platform_exhausted);
  EXPECT_EQ(legacy.tuples_incomplete, 0u);
  EXPECT_EQ(legacy.swarm.mean_coverage, 1.0);
  EXPECT_EQ(legacy.swarm.probe_population, legacy.swarm.min_active);
}

TEST(SwarmSelectionTest, SwarmOnIsDeterministicAndCoverageAware) {
  auto& p = ::clasp::testing::small_platform();
  differential_selector selector(&p.planner(), &p.view(), &p.registry());
  differential_config cfg = small_pretest(/*min_measurements=*/10);
  cfg.swarm = swarm_config::preset("low");
  const gcp_cloud::vm_id vm =
      p.cloud().create_vm("us-east1", service_tier::premium);
  const endpoint target = p.cloud().vm_endpoint(vm);

  rng r1(8), r2(8);
  vantage_swarm a(&p.planner(), &p.view(), cfg.swarm, cfg.platform);
  vantage_swarm b(&p.planner(), &p.view(), cfg.swarm, cfg.platform);
  const auto first = selector.run(target, cfg, r1, &a);
  const auto second = selector.run(target, cfg, r2, &b);
  expect_same_selection(first, second);

  // The swarm really churned and the scheduler still covered tuples.
  EXPECT_EQ(first.swarm.probe_population, a.probes().size());
  EXPECT_LT(first.swarm.min_active, first.swarm.probe_population);
  EXPECT_GT(first.swarm.joins + first.swarm.leaves, 0u);
  EXPECT_GT(first.swarm.credits_spent, 0u);
  EXPECT_EQ(first.swarm.credits_spent, a.credits_spent());
  EXPECT_GT(first.swarm.mean_coverage, 0.5);
  EXPECT_FALSE(first.coverage.empty());
  EXPECT_FALSE(first.candidates.empty());
  EXPECT_FALSE(first.selected.empty());
  std::size_t completed = 0;
  for (const auto& c : first.coverage) {
    EXPECT_EQ(c.scheduled_rounds, first.coverage.front().scheduled_rounds);
    EXPECT_EQ(c.completed_rounds + c.missed_rounds, c.scheduled_rounds);
    completed += c.completed_rounds;
  }
  EXPECT_GT(completed, 0u);
}

TEST(SwarmSelectionTest, HighChurnDegradesCoverageNotCorrectness) {
  auto& p = ::clasp::testing::small_platform();
  differential_selector selector(&p.planner(), &p.view(), &p.registry());
  differential_config low_cfg = small_pretest(/*min_measurements=*/10);
  low_cfg.swarm = swarm_config::preset("low");
  differential_config high_cfg = low_cfg;
  high_cfg.swarm = swarm_config::preset("high");
  const gcp_cloud::vm_id vm =
      p.cloud().create_vm("us-central1", service_tier::premium);
  const endpoint target = p.cloud().vm_endpoint(vm);

  rng r1(9), r2(9);
  vantage_swarm low_swarm(&p.planner(), &p.view(), low_cfg.swarm,
                          low_cfg.platform);
  vantage_swarm high_swarm(&p.planner(), &p.view(), high_cfg.swarm,
                           high_cfg.platform);
  const auto low = selector.run(target, low_cfg, r1, &low_swarm);
  const auto high = selector.run(target, high_cfg, r2, &high_swarm);
  EXPECT_LT(high.swarm.mean_active, low.swarm.mean_active);
  EXPECT_GE(high.swarm.missed_rounds, low.swarm.missed_rounds);
  EXPECT_LE(high.swarm.mean_coverage, low.swarm.mean_coverage);
  // Even under adversarial churn the run completes and reports coverage
  // instead of throwing.
  EXPECT_EQ(high.coverage.size(), low.coverage.size());
}

TEST(SwarmSelectionTest, PlatformPretestUsesThePersistentSwarm) {
  // Through the platform facade, swarm-on pre-tests accumulate ledgers on
  // the platform-owned swarm across regions.
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.differential = differential_config{};
  cfg.differential.pretest_window = pretest_days(3);
  cfg.differential.min_measurements = 10;
  cfg.differential.swarm = swarm_config::preset("low");
  clasp_platform platform(cfg);
  EXPECT_TRUE(platform.pretest_swarm().enabled());
  EXPECT_EQ(platform.pretest_swarm().credits_spent(), 0u);
  platform.select_differential("us-east1");
  const std::size_t after_first = platform.pretest_swarm().credits_spent();
  EXPECT_GT(after_first, 0u);
  platform.select_differential("us-central1");
  EXPECT_GT(platform.pretest_swarm().credits_spent(), after_first);
}

TEST(SwarmSelectionTest, CheckpointCarriesTheSwarmLedgers) {
  // A campaign checkpoint snapshots the platform swarm's ledgers; a
  // resumed campaign in a fresh process restores them, so the pre-test
  // budget cannot double-spend or silently reset.
  const fs::path root = fs::temp_directory_path() / "clasp_swarm_ckpt";
  fs::remove_all(root);
  fs::create_directories(root);

  auto make_config = [&]() {
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
    cfg.differential.pretest_window = pretest_days(2);
    cfg.differential.min_measurements = 8;
    cfg.differential.swarm = swarm_config::preset("low");
    cfg.campaign_checkpoint_dir = root.string();
    cfg.campaign_checkpoint_every_hours = 10;
    return cfg;
  };
  const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                          hour_stamp::from_civil({2020, 5, 1}, 0) + 36};

  // Spend swarm credits by probing directly (a full pre-test would also
  // create a VM, which the cloud checkpoint would then expect on resume).
  auto spend_credits = [](clasp_platform& p, std::size_t want) {
    const internet& net = p.net();
    const city_id region = net.geo->city_by_name("St. Ghislain").id;
    const auto router = net.topo->router_of(net.cloud, region);
    const endpoint target{net.cloud, region,
                          net.topo->router_at(*router).loopback, std::nullopt};
    vantage_swarm& swarm = p.pretest_swarm();
    swarm.plan(pretest_days(2));
    rng r(21);
    std::size_t served = 0;
    for (std::size_t probe = 0; probe < swarm.probes().size() && served < want;
         ++probe) {
      if (swarm.try_probe(probe, target, service_tier::premium,
                          pretest_days(2).begin_at, r)) {
        ++served;
      }
    }
    return served;
  };

  std::size_t spent = 0;
  {
    clasp_platform p(make_config());
    ASSERT_GT(spend_credits(p, 12), 0u);
    spent = p.pretest_swarm().credits_spent();
    ASSERT_GT(spent, 0u);
    campaign_runner& c = p.start_topology_campaign("us-west1", window);
    EXPECT_TRUE(c.run_until(window.begin_at + 20));  // checkpoint at 20
  }
  {
    clasp_platform p(make_config());
    EXPECT_EQ(p.pretest_swarm().credits_spent(), 0u);
    campaign_runner& c = p.start_topology_campaign("us-west1", window);
    ASSERT_TRUE(c.resume(c.config().checkpoint_dir));
    EXPECT_EQ(p.pretest_swarm().credits_spent(), spent);
    EXPECT_GT(p.pretest_swarm().platform().used_in_month(
                  pretest_days(2).begin_at),
              0u);
    EXPECT_TRUE(c.run());
  }
  fs::remove_all(root);
}

TEST(SwarmSelectionTest, SwarmMetricsReachTheExposition) {
  obs::set_enabled(true);
  obs::register_core_families();
  auto& p = ::clasp::testing::small_platform();
  differential_selector selector(&p.planner(), &p.view(), &p.registry());
  differential_config cfg = small_pretest(/*min_measurements=*/10);
  cfg.swarm = swarm_config::preset("low");
  const gcp_cloud::vm_id vm =
      p.cloud().create_vm("us-east1", service_tier::premium);
  rng r(10);
  vantage_swarm swarm(&p.planner(), &p.view(), cfg.swarm, cfg.platform);
  selector.run(p.cloud().vm_endpoint(vm), cfg, r, &swarm);

  obs::metrics_registry& reg = obs::metrics_registry::instance();
  EXPECT_GT(reg.get_counter(obs::family::kSwarmCreditsSpent).value(), 0u);
  EXPECT_GT(reg.get_gauge(obs::family::kSwarmProbes).value(), 0.0);
  EXPECT_GT(reg.get_gauge(obs::family::kSwarmCoverageRatio).value(), 0.0);
  const std::string text = obs::to_prometheus();
  EXPECT_NE(text.find("clasp_swarm_credits_spent_total"), std::string::npos);
  EXPECT_NE(text.find("clasp_swarm_active_probes"), std::string::npos);
  EXPECT_NE(text.find("clasp_swarm_coverage_ratio"), std::string::npos);
  EXPECT_NE(text.find("clasp_swarm_stale_tuples"), std::string::npos);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace clasp
