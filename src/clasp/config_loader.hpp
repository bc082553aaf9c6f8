// platform_config from INI text.
//
// Lets deployments (and the CLI's --config flag) describe a whole run
// declaratively:
//
//   [internet]
//   seed = 7
//   regional_isp_count = 1500
//   congestion_prone_fraction = 0.6
//
//   [servers]
//   us_server_target = 1000
//
//   [differential]
//   target_servers = 17
//
//   [campaign]
//   workers = 4          ; replay concurrency (0 = hardware concurrency)
//   checkpoint_dir = /var/lib/clasp/ckpt   ; durability root ("" = off)
//   checkpoint_every_hours = 24            ; cadence, must be >= 1
//
//   [budgets]            ; per-region topology deployment budgets
//   us-west1 = 106
//   us-east1 = 184
//
// Parsing is strict: unknown keys throw invalid_argument_error, so typos
// fail loudly instead of silently running a default campaign.
#pragma once

#include <string>

#include "clasp/platform.hpp"

namespace clasp {

// Apply INI text on top of the defaults. Throws on malformed syntax,
// malformed values, or unknown keys.
platform_config load_platform_config(const std::string& ini_text);

// Convenience: read the file, then parse. Throws not_found_error when
// the file cannot be read.
platform_config load_platform_config_file(const std::string& path);

}  // namespace clasp
