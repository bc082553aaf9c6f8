// clasp_cli argument parsing, as a library so tests can exercise it
// without spawning the binary. The parser is strict: an unknown flag is
// an error (with a did-you-mean suggestion when a known flag is close),
// and a flag that needs a value but sits at the end of the line names
// itself in the error instead of falling through to the generic usage.
#pragma once

#include <cstdint>
#include <string>

namespace clasp {

struct cli_options {
  std::string command;
  std::string region{"us-west1"};
  std::string tier{"premium"};
  std::string csv_path;
  std::string config_path;
  int days{7};
  int workers{-1};     // -1 = config default; 0 = hardware concurrency
  // Synthetic fleet multiplier; -1 = config default. Rejects values < 1.
  int fleet_scale{-1};
  std::string faults;  // empty = config default; else off|low|high
  // Pre-test vantage swarm preset; empty = config default.
  std::string swarm;   // off|low|high
  std::uint64_t seed{42};
  std::string checkpoint_dir;  // empty = durability off
  int checkpoint_every{-1};    // -1 = config default (hours)
  bool resume{false};
  // Worker processes for distributed replay; -1 = config default,
  // 1 = in-process. Output is byte-identical at any value.
  int shards{-1};
  // Observability: write Prometheus text to FILE (and JSON to FILE.json)
  // after the command finishes. Implies obs metrics on.
  std::string metrics_out;
  // Heartbeat cadence in simulated hours; -1 = off. Implies obs on.
  int heartbeat_every{-1};
  // --- campaign service verbs (serve/submit/status/pause/resume/cancel/
  // shutdown) ---
  // Control socket; empty = the config's service.socket.
  std::string socket;
  // Tenant name for submit (required there).
  std::string tenant;
  // Campaign id for status/pause/resume/cancel; 0 = all (status only).
  std::uint64_t id{0};
  // Durability of a submitted campaign; -1 = default (on), 0 = off, 1 = on.
  int durable{-1};
};

struct cli_parse_result {
  bool ok{false};
  // Human-readable reason when !ok; empty when the caller should print
  // plain usage (no arguments / unknown command).
  std::string error;
};

// Parse argv (argv[0] is the program name). On failure, `error` explains
// which flag was wrong — including "unknown flag --foo (did you mean
// --for?)" suggestions via util::edit_distance.
cli_parse_result parse_cli_args(int argc, const char* const* argv,
                                cli_options& opts);

}  // namespace clasp
