#include "clasp/cli.hpp"

#include <exception>

#include "util/strings.hpp"

namespace clasp {

namespace {

// Every flag the CLI understands, for did-you-mean suggestions.
constexpr const char* kKnownFlags[] = {
    "--region",          "--days",
    "--tier",            "--csv",
    "--config",          "--seed",
    "--workers",         "--faults",
    "--checkpoint-dir",  "--checkpoint-every",
    "--resume",          "--metrics-out",
    "--heartbeat-every", "--fleet-scale",
    "--swarm",           "--shards",
    "--socket",          "--tenant",
    "--id",              "--durable",
};

std::string unknown_flag_error(const std::string& flag) {
  const char* best = nullptr;
  std::size_t best_distance = 0;
  for (const char* candidate : kKnownFlags) {
    const std::size_t d = edit_distance(flag, candidate);
    if (best == nullptr || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Same near-miss rule as the config loader: an unrelated suggestion
  // would be noise.
  if (best != nullptr && best_distance <= flag.size() / 2) {
    return "unknown flag " + flag + " (did you mean " + best + "?)";
  }
  return "unknown flag " + flag;
}

bool parse_int(const std::string& value, int& out) {
  try {
    std::size_t consumed = 0;
    out = std::stoi(value, &consumed);
    return consumed == value.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

cli_parse_result parse_cli_args(int argc, const char* const* argv,
                                cli_options& opts) {
  if (argc < 2) return {false, ""};
  opts.command = argv[1];
  if (opts.command != "select" && opts.command != "pilot" &&
      opts.command != "run" && opts.command != "cost" &&
      opts.command != "report" && opts.command != "serve" &&
      opts.command != "submit" && opts.command != "status" &&
      opts.command != "pause" && opts.command != "resume" &&
      opts.command != "cancel" && opts.command != "shutdown") {
    return {false, "unknown command '" + opts.command + "'"};
  }
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--resume") {  // the only valueless flag
      opts.resume = true;
      continue;
    }
    if (key.size() < 2 || key[0] != '-' || key[1] != '-') {
      return {false, "expected a --flag, got '" + key + "'"};
    }
    bool known = false;
    for (const char* candidate : kKnownFlags) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) return {false, unknown_flag_error(key)};
    if (i + 1 >= argc) return {false, "missing value for " + key};
    const std::string value = argv[++i];
    if (key == "--region") {
      opts.region = value;
    } else if (key == "--days") {
      if (!parse_int(value, opts.days) || opts.days <= 0 || opts.days > 153) {
        return {false, "--days must be an integer in [1, 153]"};
      }
    } else if (key == "--tier") {
      if (value != "premium" && value != "standard") {
        return {false, "--tier must be premium or standard"};
      }
      opts.tier = value;
    } else if (key == "--csv") {
      opts.csv_path = value;
    } else if (key == "--config") {
      opts.config_path = value;
    } else if (key == "--seed") {
      try {
        opts.seed = std::stoull(value);
      } catch (const std::exception&) {
        return {false, "--seed must be an unsigned integer"};
      }
    } else if (key == "--workers") {
      if (!parse_int(value, opts.workers) || opts.workers < 0) {
        return {false, "--workers must be an integer >= 0"};
      }
    } else if (key == "--faults") {
      if (value != "off" && value != "low" && value != "high") {
        return {false, "--faults must be off, low or high"};
      }
      opts.faults = value;
    } else if (key == "--swarm") {
      if (value != "off" && value != "low" && value != "high") {
        return {false, "--swarm must be off, low or high"};
      }
      opts.swarm = value;
    } else if (key == "--checkpoint-dir") {
      opts.checkpoint_dir = value;
    } else if (key == "--checkpoint-every") {
      if (!parse_int(value, opts.checkpoint_every) ||
          opts.checkpoint_every <= 0) {
        return {false, "--checkpoint-every must be an integer >= 1"};
      }
    } else if (key == "--fleet-scale") {
      if (!parse_int(value, opts.fleet_scale) || opts.fleet_scale < 1) {
        return {false,
                "--fleet-scale must be an integer >= 1 (synthetic fleet "
                "multiplier; use --fleet-scale 1 for the paper-scale fleet)"};
      }
    } else if (key == "--shards") {
      if (!parse_int(value, opts.shards) || opts.shards < 1) {
        return {false,
                "--shards must be an integer >= 1 (worker processes for "
                "distributed replay; use --shards 1 for in-process replay)"};
      }
    } else if (key == "--socket") {
      opts.socket = value;
    } else if (key == "--tenant") {
      if (value.empty()) return {false, "--tenant must not be empty"};
      opts.tenant = value;
    } else if (key == "--id") {
      try {
        std::size_t consumed = 0;
        opts.id = std::stoull(value, &consumed);
        if (consumed != value.size() || opts.id == 0) {
          return {false, "--id must be a campaign id >= 1"};
        }
      } catch (const std::exception&) {
        return {false, "--id must be a campaign id >= 1"};
      }
    } else if (key == "--durable") {
      if (value == "on" || value == "1" || value == "true") {
        opts.durable = 1;
      } else if (value == "off" || value == "0" || value == "false") {
        opts.durable = 0;
      } else {
        return {false, "--durable must be on or off"};
      }
    } else if (key == "--metrics-out") {
      opts.metrics_out = value;
    } else if (key == "--heartbeat-every") {
      if (!parse_int(value, opts.heartbeat_every) ||
          opts.heartbeat_every <= 0) {
        return {false, "--heartbeat-every must be an integer >= 1"};
      }
    }
  }
  if (opts.resume && opts.checkpoint_dir.empty()) {
    return {false, "--resume requires --checkpoint-dir"};
  }
  if (opts.command == "submit" && opts.tenant.empty()) {
    return {false, "submit requires --tenant"};
  }
  if ((opts.command == "pause" || opts.command == "resume" ||
       opts.command == "cancel") &&
      opts.id == 0) {
    return {false, opts.command + " requires --id"};
  }
  return {true, ""};
}

}  // namespace clasp
