#include "clasp/config_loader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace clasp {
namespace {

TEST(ConfigLoaderTest, EmptyTextGivesDefaults) {
  const platform_config cfg = load_platform_config("");
  const platform_config defaults;
  EXPECT_EQ(cfg.internet.seed, defaults.internet.seed);
  EXPECT_EQ(cfg.servers.us_server_target, defaults.servers.us_server_target);
  EXPECT_EQ(cfg.topology_budgets, defaults.topology_budgets);
}

TEST(ConfigLoaderTest, OverridesApply) {
  const platform_config cfg = load_platform_config(
      "[internet]\n"
      "seed = 99\n"
      "regional_isp_count = 500\n"
      "congestion_prone_fraction = 0.7\n"
      "[servers]\n"
      "us_server_target = 700\n"
      "global_server_target = 5000\n"
      "[differential]\n"
      "target_servers = 17\n");
  EXPECT_EQ(cfg.internet.seed, 99u);
  EXPECT_EQ(cfg.internet.regional_isp_count, 500u);
  EXPECT_DOUBLE_EQ(cfg.internet.congestion_prone_fraction, 0.7);
  EXPECT_EQ(cfg.servers.us_server_target, 700u);
  EXPECT_EQ(cfg.differential.target_servers, 17u);
}

TEST(ConfigLoaderTest, BudgetsReplaceDefaults) {
  const platform_config cfg = load_platform_config(
      "[budgets]\n"
      "us-west1 = 10\n"
      "us-east1 = 20\n");
  EXPECT_EQ(cfg.topology_budgets.size(), 2u);
  EXPECT_EQ(cfg.topology_budgets.at("us-west1"), 10u);
  EXPECT_EQ(cfg.topology_budgets.at("us-east1"), 20u);
}

TEST(ConfigLoaderTest, UnknownKeyRejected) {
  EXPECT_THROW(load_platform_config("[internet]\nseeed = 1\n"),
               invalid_argument_error);
  EXPECT_THROW(load_platform_config("random = 1\n"), invalid_argument_error);
}

TEST(ConfigLoaderTest, UnknownKeySuggestsNearestValidKey) {
  try {
    load_platform_config("[internet]\nseeed = 1\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key internet.seeed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean internet.seed?"), std::string::npos)
        << what;
  }
  try {
    load_platform_config("[faults]\nserver_churn_rte = 0.1\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("did you mean faults.server_churn_rate?"),
              std::string::npos)
        << e.what();
  }
  // Nothing close: the hint is omitted rather than misleading.
  try {
    load_platform_config("utterly_wrong_key_zzz = 1\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, FaultKeysApply) {
  const platform_config cfg = load_platform_config(
      "[faults]\n"
      "enabled = true\n"
      "seed = 9\n"
      "server_churn_rate = 0.05\n"
      "test_failure_rate = 0.03\n"
      "max_retries = 4\n"
      "vm_preemption_rate = 0.002\n"
      "vm_outage_hours_min = 2\n"
      "vm_outage_hours_max = 6\n"
      "upload_failure_rate = 0.01\n"
      "strict_hour_budget = true\n");
  EXPECT_TRUE(cfg.campaign_faults.enabled);
  EXPECT_EQ(cfg.campaign_faults.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.campaign_faults.server_churn_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.campaign_faults.test_failure_rate, 0.03);
  EXPECT_EQ(cfg.campaign_faults.max_retries, 4u);
  EXPECT_DOUBLE_EQ(cfg.campaign_faults.vm_preemption_rate, 0.002);
  EXPECT_EQ(cfg.campaign_faults.vm_outage_hours_min, 2u);
  EXPECT_EQ(cfg.campaign_faults.vm_outage_hours_max, 6u);
  EXPECT_DOUBLE_EQ(cfg.campaign_faults.upload_failure_rate, 0.01);
  EXPECT_TRUE(cfg.campaign_faults.strict_hour_budget);
}

TEST(ConfigLoaderTest, FaultPresetSeedsRatesAndKeysOverride) {
  // Defaults: faults off.
  EXPECT_FALSE(load_platform_config("").campaign_faults.enabled);

  const platform_config preset =
      load_platform_config("[faults]\npreset = low\n");
  const fault_config low = fault_config::preset("low");
  EXPECT_TRUE(preset.campaign_faults.enabled);
  EXPECT_DOUBLE_EQ(preset.campaign_faults.server_churn_rate,
                   low.server_churn_rate);

  // An individual key overrides the preset regardless of file order.
  const platform_config mixed = load_platform_config(
      "[faults]\n"
      "test_failure_rate = 0.25\n"
      "preset = low\n");
  EXPECT_DOUBLE_EQ(mixed.campaign_faults.test_failure_rate, 0.25);
  EXPECT_DOUBLE_EQ(mixed.campaign_faults.upload_failure_rate,
                   low.upload_failure_rate);

  EXPECT_THROW(load_platform_config("[faults]\npreset = extreme\n"),
               invalid_argument_error);
  EXPECT_THROW(load_platform_config("[faults]\ntest_failure_rate = 1.5\n"),
               invalid_argument_error);
}

TEST(ConfigLoaderTest, SwarmKeysApply) {
  const platform_config cfg = load_platform_config(
      "[swarm]\n"
      "enabled = true\n"
      "seed = 17\n"
      "join_rate = 0.2\n"
      "leave_rate = 0.05\n"
      "credits_per_probe = 250\n"
      "rate_limit_per_hour = 4\n"
      "coverage_target = 0.85\n"
      "max_substitutes = 5\n"
      "retry_backoff_hours = 2\n");
  const swarm_config& swarm = cfg.differential.swarm;
  EXPECT_TRUE(swarm.enabled);
  EXPECT_EQ(swarm.seed, 17u);
  EXPECT_DOUBLE_EQ(swarm.join_rate, 0.2);
  EXPECT_DOUBLE_EQ(swarm.leave_rate, 0.05);
  EXPECT_EQ(swarm.credits_per_probe, 250u);
  EXPECT_EQ(swarm.rate_limit_per_hour, 4u);
  EXPECT_DOUBLE_EQ(swarm.coverage_target, 0.85);
  EXPECT_EQ(swarm.max_substitutes, 5u);
  EXPECT_EQ(swarm.retry_backoff_hours, 2u);
  // Defaults: swarm off, the legacy fixed panel.
  EXPECT_FALSE(load_platform_config("").differential.swarm.enabled);
}

TEST(ConfigLoaderTest, SwarmPresetSeedsConfigAndKeysOverride) {
  const platform_config preset =
      load_platform_config("[swarm]\npreset = low\n");
  const swarm_config low = swarm_config::preset("low");
  EXPECT_TRUE(preset.differential.swarm.enabled);
  EXPECT_DOUBLE_EQ(preset.differential.swarm.join_rate, low.join_rate);
  EXPECT_EQ(preset.differential.swarm.credits_per_probe,
            low.credits_per_probe);

  // An individual key overrides the preset regardless of file order.
  const platform_config mixed = load_platform_config(
      "[swarm]\n"
      "credits_per_probe = 9999\n"
      "preset = low\n");
  EXPECT_EQ(mixed.differential.swarm.credits_per_probe, 9999u);
  EXPECT_DOUBLE_EQ(mixed.differential.swarm.leave_rate, low.leave_rate);

  EXPECT_THROW(load_platform_config("[swarm]\npreset = extreme\n"),
               invalid_argument_error);
  EXPECT_THROW(load_platform_config("[swarm]\njoin_rate = 1.5\n"),
               invalid_argument_error);
}

TEST(ConfigLoaderTest, SwarmKeyTyposGetSuggestions) {
  try {
    load_platform_config("[swarm]\ncredits_per_prob = 100\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("did you mean swarm.credits_per_probe?"),
              std::string::npos)
        << e.what();
  }
  try {
    load_platform_config("[swarm]\ncoverage_targt = 0.8\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(
        std::string(e.what()).find("did you mean swarm.coverage_target?"),
        std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, CheckpointKeysApply) {
  const platform_config cfg = load_platform_config(
      "[campaign]\n"
      "checkpoint_dir = /var/lib/clasp/ckpt\n"
      "checkpoint_every_hours = 6\n");
  EXPECT_EQ(cfg.campaign_checkpoint_dir, "/var/lib/clasp/ckpt");
  EXPECT_EQ(cfg.campaign_checkpoint_every_hours, 6u);
  // Defaults: durability off, daily cadence once a dir is set.
  const platform_config defaults = load_platform_config("");
  EXPECT_TRUE(defaults.campaign_checkpoint_dir.empty());
  EXPECT_EQ(defaults.campaign_checkpoint_every_hours, 24u);
}

TEST(ConfigLoaderTest, ZeroCheckpointCadenceRejected) {
  try {
    load_platform_config("[campaign]\ncheckpoint_every_hours = 0\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoint_every_hours must be >= 1"),
              std::string::npos)
        << what;
    // The message explains how to disable durability instead.
    EXPECT_NE(what.find("checkpoint_dir"), std::string::npos) << what;
  }
}

TEST(ConfigLoaderTest, FleetScaleApplies) {
  const platform_config cfg =
      load_platform_config("[campaign]\nfleet_scale = 10\n");
  EXPECT_EQ(cfg.fleet_scale, 10u);
  // Default: the paper-scale fleet.
  EXPECT_EQ(load_platform_config("").fleet_scale, 1u);
}

TEST(ConfigLoaderTest, RemovedSpeedKnobsAreUnknownKeys) {
  // The condition cache and the batched sweep are always on; configs that
  // still set the old knobs fail loudly instead of being silently obeyed.
  for (const char* key : {"link_cache", "batch_eval"}) {
    for (const char* value : {"true", "false"}) {
      const std::string text =
          std::string("[campaign]\n") + key + " = " + value + "\n";
      try {
        load_platform_config(text);
        FAIL() << "expected invalid_argument_error for " << key;
      } catch (const invalid_argument_error& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("unknown key campaign.") +
                                             key),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ConfigLoaderTest, ZeroFleetScaleRejected) {
  try {
    load_platform_config("[campaign]\nfleet_scale = 0\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fleet_scale must be >= 1"), std::string::npos)
        << what;
    // The message explains the knob and names the paper-scale value.
    EXPECT_NE(what.find("fleet_scale = 1"), std::string::npos) << what;
  }
}

TEST(ConfigLoaderTest, FleetScaleTypoGetsSuggestion) {
  try {
    load_platform_config("[campaign]\nfleet_scal = 10\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(
        std::string(e.what()).find("did you mean campaign.fleet_scale?"),
        std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, CheckpointKeyTyposGetSuggestions) {
  try {
    load_platform_config("[campaign]\ncheckpoint_every_hour = 12\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("did you mean campaign.checkpoint_every_hours?"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, ServiceKeysApply) {
  const platform_config cfg = load_platform_config(
      "[service]\n"
      "socket = /run/clasp/svc.sock\n"
      "state_dir = /var/lib/clasp/svc\n"
      "results_dir = /var/lib/clasp/results\n"
      "quantum_hours = 12\n"
      "worker_budget = 16\n"
      "max_admitted = 6\n"
      "tenant_max_admitted = 3\n"
      "tenant_max_active = 32\n"
      "max_resident = 5\n"
      "heartbeat_every_quanta = 8\n");
  EXPECT_EQ(cfg.service.socket, "/run/clasp/svc.sock");
  EXPECT_EQ(cfg.service.state_dir, "/var/lib/clasp/svc");
  EXPECT_EQ(cfg.service.results_dir, "/var/lib/clasp/results");
  EXPECT_EQ(cfg.service.quantum_hours, 12u);
  EXPECT_EQ(cfg.service.worker_budget, 16u);
  EXPECT_EQ(cfg.service.max_admitted, 6u);
  EXPECT_EQ(cfg.service.tenant_max_admitted, 3u);
  EXPECT_EQ(cfg.service.tenant_max_active, 32u);
  EXPECT_EQ(cfg.service.max_resident, 5u);
  EXPECT_EQ(cfg.service.heartbeat_every_quanta, 8u);
  // Defaults: results stay in-store, heartbeat off.
  const platform_config defaults = load_platform_config("");
  EXPECT_TRUE(defaults.service.results_dir.empty());
  EXPECT_EQ(defaults.service.heartbeat_every_quanta, 0u);
}

TEST(ConfigLoaderTest, ZeroServiceQuantumRejected) {
  try {
    load_platform_config("[service]\nquantum_hours = 0\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("quantum_hours must be >= 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, ServiceKeyTyposGetSuggestions) {
  try {
    load_platform_config("[service]\nworker_budgets = 8\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(
        std::string(e.what()).find("did you mean service.worker_budget?"),
        std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, ObsKeysApply) {
  const platform_config cfg = load_platform_config(
      "[obs]\n"
      "metrics = true\n"
      "heartbeat_every_hours = 12\n"
      "span_ring_capacity = 512\n");
  EXPECT_TRUE(cfg.obs_metrics);
  EXPECT_EQ(cfg.obs_heartbeat_every_hours, 12u);
  EXPECT_EQ(cfg.obs_span_ring_capacity, 512u);
  // Defaults: observability fully off.
  const platform_config defaults = load_platform_config("");
  EXPECT_FALSE(defaults.obs_metrics);
  EXPECT_EQ(defaults.obs_heartbeat_every_hours, 0u);
  EXPECT_EQ(defaults.obs_span_ring_capacity, 0u);
}

TEST(ConfigLoaderTest, ObsKeyTyposGetSuggestions) {
  try {
    load_platform_config("[obs]\nmetric = true\n");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean obs.metrics?"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, BadValuesRejected) {
  EXPECT_THROW(load_platform_config("[internet]\nseed = abc\n"),
               invalid_argument_error);
  EXPECT_THROW(
      load_platform_config("[internet]\ncongestion_prone_fraction = 1.5\n"),
      invalid_argument_error);
  EXPECT_THROW(load_platform_config("[internet]\ntier1_count = -3\n"),
               invalid_argument_error);
  EXPECT_THROW(load_platform_config("[budgets]\nmars-north1 = 5\n"),
               not_found_error);
  EXPECT_THROW(load_platform_config("[servers]\nus_server_target = 100\n"
                                    "global_server_target = 50\n"),
               invalid_argument_error);
}

TEST(ConfigLoaderTest, FileRoundTrip) {
  const char* path = "/tmp/clasp_config_test.ini";
  {
    std::ofstream out(path);
    out << "[internet]\nseed = 1234\n";
  }
  const platform_config cfg = load_platform_config_file(path);
  EXPECT_EQ(cfg.internet.seed, 1234u);
  std::remove(path);
  EXPECT_THROW(load_platform_config_file(path), not_found_error);
}

TEST(ConfigLoaderTest, LoadedConfigBuildsAPlatform) {
  const platform_config cfg = load_platform_config(
      "[internet]\n"
      "seed = 5\n"
      "regional_isp_count = 150\n"
      "hosting_count = 80\n"
      "business_count = 150\n"
      "education_count = 30\n"
      "vantage_point_count = 100\n"
      "[servers]\n"
      "us_server_target = 150\n"
      "global_server_target = 700\n"
      "[budgets]\n"
      "us-west1 = 12\n");
  clasp_platform platform(cfg);
  EXPECT_EQ(platform.registry().size(), 700u);
  const auto& sel = platform.select_topology("us-west1");
  EXPECT_LE(sel.selected.size(), 12u);
}

}  // namespace
}  // namespace clasp
