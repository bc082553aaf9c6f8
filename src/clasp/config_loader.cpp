#include "clasp/config_loader.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/ini.hpp"
#include "util/strings.hpp"

namespace clasp {

namespace {

std::size_t as_count(const ini_document& doc, const std::string& key) {
  const std::int64_t v = doc.get_int(key);
  if (v < 0) {
    throw invalid_argument_error("config: " + key + " must be >= 0");
  }
  return static_cast<std::size_t>(v);
}

double as_fraction(const ini_document& doc, const std::string& key) {
  const double v = doc.get_double(key);
  if (v < 0.0 || v > 1.0) {
    throw invalid_argument_error("config: " + key + " must be in [0, 1]");
  }
  return v;
}

// Every fixed key the loader understands, for did-you-mean suggestions
// on unknown keys (budgets.<region> keys are matched by prefix instead).
constexpr const char* kKnownKeys[] = {
    "internet.seed",
    "internet.tier1_count",
    "internet.transit_count",
    "internet.large_isp_count",
    "internet.regional_isp_count",
    "internet.hosting_count",
    "internet.education_count",
    "internet.business_count",
    "internet.international_fraction",
    "internet.congestion_prone_fraction",
    "internet.vantage_point_count",
    "servers.us_server_target",
    "servers.global_server_target",
    "servers.ookla_fraction",
    "servers.mlab_fraction",
    "differential.target_servers",
    "differential.min_measurements",
    "differential.big_delta_ms",
    "differential.small_delta_ms",
    "swarm.preset",
    "swarm.enabled",
    "swarm.seed",
    "swarm.join_rate",
    "swarm.leave_rate",
    "swarm.credits_per_probe",
    "swarm.rate_limit_per_hour",
    "swarm.coverage_target",
    "swarm.max_substitutes",
    "swarm.retry_backoff_hours",
    "campaign.workers",
    "campaign.fleet_scale",
    "campaign.checkpoint_dir",
    "campaign.checkpoint_every_hours",
    "campaign.shards",
    "faults.enabled",
    "faults.preset",
    "faults.seed",
    "faults.server_churn_rate",
    "faults.test_failure_rate",
    "faults.max_retries",
    "faults.vm_preemption_rate",
    "faults.vm_outage_hours_min",
    "faults.vm_outage_hours_max",
    "faults.upload_failure_rate",
    "faults.strict_hour_budget",
    "obs.metrics",
    "obs.heartbeat_every_hours",
    "obs.span_ring_capacity",
    "service.socket",
    "service.state_dir",
    "service.results_dir",
    "service.quantum_hours",
    "service.worker_budget",
    "service.max_admitted",
    "service.tenant_max_admitted",
    "service.tenant_max_active",
    "service.max_resident",
    "service.heartbeat_every_quanta",
};

[[noreturn]] void throw_unknown_key(const std::string& key) {
  const char* best = nullptr;
  std::size_t best_distance = 0;
  for (const char* candidate : kKnownKeys) {
    const std::size_t d = edit_distance(key, candidate);
    if (best == nullptr || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Only suggest a near miss; an unrelated key would make the hint noise.
  if (best != nullptr && best_distance <= key.size() / 2) {
    throw invalid_argument_error("config: unknown key " + key +
                                 " (did you mean " + best + "?)");
  }
  throw invalid_argument_error("config: unknown key " + key);
}

}  // namespace

platform_config load_platform_config(const std::string& ini_text) {
  const ini_document doc = ini_document::parse(ini_text);
  platform_config cfg;
  cfg.topology_budgets.clear();  // budgets come from the file when present
  bool budgets_given = false;

  // The preset seeds the whole fault config before any faults.* key is
  // read, so individual rates in the file always override it.
  if (doc.contains("faults.preset")) {
    cfg.campaign_faults = fault_config::preset(doc.get("faults.preset"));
  }
  // Same pattern for the pre-test swarm: preset first, keys override.
  if (doc.contains("swarm.preset")) {
    cfg.differential.swarm = swarm_config::preset(doc.get("swarm.preset"));
  }

  for (const auto& [key, value] : doc.entries()) {
    if (key == "internet.seed") {
      cfg.internet.seed = static_cast<std::uint64_t>(doc.get_int(key));
    } else if (key == "internet.tier1_count") {
      cfg.internet.tier1_count = as_count(doc, key);
    } else if (key == "internet.transit_count") {
      cfg.internet.transit_count = as_count(doc, key);
    } else if (key == "internet.large_isp_count") {
      cfg.internet.large_isp_count = as_count(doc, key);
    } else if (key == "internet.regional_isp_count") {
      cfg.internet.regional_isp_count = as_count(doc, key);
    } else if (key == "internet.hosting_count") {
      cfg.internet.hosting_count = as_count(doc, key);
    } else if (key == "internet.education_count") {
      cfg.internet.education_count = as_count(doc, key);
    } else if (key == "internet.business_count") {
      cfg.internet.business_count = as_count(doc, key);
    } else if (key == "internet.international_fraction") {
      cfg.internet.international_fraction = as_fraction(doc, key);
    } else if (key == "internet.congestion_prone_fraction") {
      cfg.internet.congestion_prone_fraction = as_fraction(doc, key);
    } else if (key == "internet.vantage_point_count") {
      cfg.internet.vantage_point_count = as_count(doc, key);
    } else if (key == "servers.us_server_target") {
      cfg.servers.us_server_target = as_count(doc, key);
    } else if (key == "servers.global_server_target") {
      cfg.servers.global_server_target = as_count(doc, key);
    } else if (key == "servers.ookla_fraction") {
      cfg.servers.ookla_fraction = as_fraction(doc, key);
    } else if (key == "servers.mlab_fraction") {
      cfg.servers.mlab_fraction = as_fraction(doc, key);
    } else if (key == "differential.target_servers") {
      cfg.differential.target_servers = as_count(doc, key);
    } else if (key == "differential.min_measurements") {
      cfg.differential.min_measurements = as_count(doc, key);
    } else if (key == "differential.big_delta_ms") {
      cfg.differential.big_delta_ms = doc.get_double(key);
    } else if (key == "differential.small_delta_ms") {
      cfg.differential.small_delta_ms = doc.get_double(key);
    } else if (key == "campaign.workers") {
      cfg.campaign_workers =
          static_cast<unsigned>(as_count(doc, key));  // 0 = hw concurrency
    } else if (key == "campaign.fleet_scale") {
      const std::size_t scale = as_count(doc, key);
      if (scale == 0) {
        throw invalid_argument_error(
            "config: campaign.fleet_scale must be >= 1 (synthetic fleet "
            "multiplier; use campaign.fleet_scale = 1 for the paper-scale "
            "fleet)");
      }
      cfg.fleet_scale = scale;
    } else if (key == "campaign.checkpoint_dir") {
      cfg.campaign_checkpoint_dir = doc.get(key);
    } else if (key == "campaign.checkpoint_every_hours") {
      const std::size_t every = as_count(doc, key);
      if (every == 0) {
        throw invalid_argument_error(
            "config: campaign.checkpoint_every_hours must be >= 1 (hours "
            "between checkpoints; use campaign.checkpoint_dir = <empty> to "
            "disable durability)");
      }
      cfg.campaign_checkpoint_every_hours = static_cast<unsigned>(every);
    } else if (key == "campaign.shards") {
      const std::size_t shards = as_count(doc, key);
      if (shards == 0) {
        throw invalid_argument_error(
            "config: campaign.shards must be >= 1 (worker processes for "
            "distributed replay; use campaign.shards = 1 for in-process "
            "replay)");
      }
      cfg.campaign_shards = shards;
    } else if (key == "swarm.preset") {
      // Already applied, before the key loop.
    } else if (key == "swarm.enabled") {
      cfg.differential.swarm.enabled = doc.get_bool(key);
    } else if (key == "swarm.seed") {
      cfg.differential.swarm.seed =
          static_cast<std::uint64_t>(doc.get_int(key));
    } else if (key == "swarm.join_rate") {
      cfg.differential.swarm.join_rate = as_fraction(doc, key);
    } else if (key == "swarm.leave_rate") {
      cfg.differential.swarm.leave_rate = as_fraction(doc, key);
    } else if (key == "swarm.credits_per_probe") {
      cfg.differential.swarm.credits_per_probe = as_count(doc, key);
    } else if (key == "swarm.rate_limit_per_hour") {
      cfg.differential.swarm.rate_limit_per_hour =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "swarm.coverage_target") {
      cfg.differential.swarm.coverage_target = as_fraction(doc, key);
    } else if (key == "swarm.max_substitutes") {
      cfg.differential.swarm.max_substitutes =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "swarm.retry_backoff_hours") {
      cfg.differential.swarm.retry_backoff_hours =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "faults.preset") {
      // Already applied, before the key loop.
    } else if (key == "faults.enabled") {
      cfg.campaign_faults.enabled = doc.get_bool(key);
    } else if (key == "faults.seed") {
      cfg.campaign_faults.seed = static_cast<std::uint64_t>(doc.get_int(key));
    } else if (key == "faults.server_churn_rate") {
      cfg.campaign_faults.server_churn_rate = as_fraction(doc, key);
    } else if (key == "faults.test_failure_rate") {
      cfg.campaign_faults.test_failure_rate = as_fraction(doc, key);
    } else if (key == "faults.max_retries") {
      cfg.campaign_faults.max_retries =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "faults.vm_preemption_rate") {
      cfg.campaign_faults.vm_preemption_rate = as_fraction(doc, key);
    } else if (key == "faults.vm_outage_hours_min") {
      cfg.campaign_faults.vm_outage_hours_min =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "faults.vm_outage_hours_max") {
      cfg.campaign_faults.vm_outage_hours_max =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "faults.upload_failure_rate") {
      cfg.campaign_faults.upload_failure_rate = as_fraction(doc, key);
    } else if (key == "faults.strict_hour_budget") {
      cfg.campaign_faults.strict_hour_budget = doc.get_bool(key);
    } else if (key == "obs.metrics") {
      cfg.obs_metrics = doc.get_bool(key);
    } else if (key == "obs.heartbeat_every_hours") {
      cfg.obs_heartbeat_every_hours =
          static_cast<unsigned>(as_count(doc, key));
    } else if (key == "obs.span_ring_capacity") {
      cfg.obs_span_ring_capacity = as_count(doc, key);
    } else if (key == "service.socket") {
      cfg.service.socket = doc.get(key);
    } else if (key == "service.state_dir") {
      cfg.service.state_dir = doc.get(key);
    } else if (key == "service.results_dir") {
      cfg.service.results_dir = doc.get(key);
    } else if (key == "service.quantum_hours") {
      const std::size_t quantum = as_count(doc, key);
      if (quantum == 0) {
        throw invalid_argument_error(
            "config: service.quantum_hours must be >= 1 (scheduler time "
            "slice in simulated hours)");
      }
      cfg.service.quantum_hours = static_cast<unsigned>(quantum);
    } else if (key == "service.worker_budget") {
      const std::size_t budget = as_count(doc, key);
      if (budget == 0) {
        throw invalid_argument_error(
            "config: service.worker_budget must be >= 1 (shared worker "
            "units across admitted campaigns)");
      }
      cfg.service.worker_budget = static_cast<unsigned>(budget);
    } else if (key == "service.max_admitted") {
      const std::size_t cap = as_count(doc, key);
      if (cap == 0) {
        throw invalid_argument_error(
            "config: service.max_admitted must be >= 1");
      }
      cfg.service.max_admitted = cap;
    } else if (key == "service.tenant_max_admitted") {
      const std::size_t cap = as_count(doc, key);
      if (cap == 0) {
        throw invalid_argument_error(
            "config: service.tenant_max_admitted must be >= 1");
      }
      cfg.service.tenant_max_admitted = cap;
    } else if (key == "service.tenant_max_active") {
      const std::size_t cap = as_count(doc, key);
      if (cap == 0) {
        throw invalid_argument_error(
            "config: service.tenant_max_active must be >= 1");
      }
      cfg.service.tenant_max_active = cap;
    } else if (key == "service.max_resident") {
      const std::size_t cap = as_count(doc, key);
      if (cap == 0) {
        throw invalid_argument_error(
            "config: service.max_resident must be >= 1 (sessions kept in "
            "memory; durable ones are evicted beyond this)");
      }
      cfg.service.max_resident = cap;
    } else if (key == "service.heartbeat_every_quanta") {
      cfg.service.heartbeat_every_quanta =
          static_cast<unsigned>(as_count(doc, key));
    } else if (starts_with(key, "budgets.")) {
      const std::string region = key.substr(std::string("budgets.").size());
      region_by_name(region);  // validates the region name
      cfg.topology_budgets[region] = as_count(doc, key);
      budgets_given = true;
    } else {
      throw_unknown_key(key);
    }
  }

  if (!budgets_given) {
    cfg.topology_budgets = platform_config{}.topology_budgets;
  }
  if (cfg.servers.global_server_target < cfg.servers.us_server_target) {
    throw invalid_argument_error(
        "config: global_server_target < us_server_target");
  }
  return cfg;
}

platform_config load_platform_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw not_found_error("config: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_platform_config(buffer.str());
}

}  // namespace clasp
