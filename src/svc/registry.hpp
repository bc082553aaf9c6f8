// Multi-tenant campaign registry: every submitted campaign, its state
// machine and the durable queue the daemon reloads after a restart.
//
// States and legal transitions:
//
//   queued ──> admitted ──> running ──> done
//     │           │    ^       │ ├────> failed
//     │           │    │       v │
//     │           └──> paused <─┘ │
//     │                  │        │
//     └──────────────────┴────────┴───> cancelled
//
//   (paused ──> queued is how `resume` re-enters admission; a paused
//   campaign holds no budget, costing nothing but its checkpoint.)
//
// Every transition is validated — an illegal edge is a typed
// state_error, never a silent overwrite — and done/failed/cancelled are
// terminal. Persistence is a CRC-trailed snapshot written through the
// codec's small-file helpers (util/frame.hpp) with a tmp+rename publish,
// so a kill -9 leaves either the old or the new registry, never a torn
// one.
// On reload, reset_transients() demotes admitted/running records back to
// queued: their sessions died with the process, and re-admission plus
// checkpoint resume reproduces their output byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/spec.hpp"

namespace clasp::svc {

enum class campaign_state : std::uint8_t {
  queued = 0,
  admitted = 1,
  running = 2,
  paused = 3,
  done = 4,
  failed = 5,
  cancelled = 6,
};

const char* to_string(campaign_state state);

// Active = still owns queue or budget state (not terminal).
bool state_active(campaign_state state);

struct campaign_record {
  std::uint64_t id{0};          // service-assigned, never reused
  std::string tenant;
  campaign_spec spec;           // seed already resolved (never 0)
  std::uint64_t fingerprint{0};
  campaign_state state{campaign_state::queued};
  std::uint64_t submit_seq{0};  // FIFO order for admission/scheduling
  std::int64_t cursor_hours{0};  // last observed progress (informational;
                                 // the checkpoint is authoritative)
  std::uint64_t preemptions{0};  // quanta this campaign yielded unfinished
  std::string error;             // why state == failed
};

class campaign_registry {
 public:
  // Register a submission: assigns id and submit_seq, resolves seed 0 to
  // a per-(tenant, id) hash, validates the spec, and refuses a duplicate
  // — same tenant, same fingerprint, still active — with state_error.
  // Resubmitting after done/failed/cancelled is fine.
  campaign_record& submit(const std::string& tenant, campaign_spec spec);

  bool contains(std::uint64_t id) const;
  campaign_record& record(std::uint64_t id);             // not_found_error
  const campaign_record& record(std::uint64_t id) const;

  // Validated state-machine edge; throws state_error on an illegal one.
  void transition(std::uint64_t id, campaign_state to);
  // Mark failed with a reason from any active state (the one edge every
  // active state has); throws state_error from a terminal state.
  void fail(std::uint64_t id, std::string why);

  // All ids in ascending id order / ids currently in `state`.
  std::vector<std::uint64_t> ids() const;
  std::vector<std::uint64_t> in_state(campaign_state state) const;
  std::size_t count(campaign_state state) const;
  // Active (non-terminal) records for a tenant / overall.
  std::size_t active_count() const;
  std::size_t active_count(const std::string& tenant) const;

  const std::map<std::uint64_t, campaign_record>& records() const {
    return records_;
  }

  // Restart reconciliation: admitted/running -> queued (their sessions
  // died with the daemon; re-admission resumes them from checkpoints).
  void reset_transients();

  // Versioned snapshot codec. decode throws invalid_argument_error on
  // corruption or a version mismatch.
  std::string encode() const;
  static campaign_registry decode(std::string_view payload);

  // Crash-atomic persistence: encode + CRC trailer into <path>.tmp, then
  // rename over <path>. load returns nullopt when no file exists yet.
  void save(const std::string& path) const;
  static std::optional<campaign_registry> load(const std::string& path);

  // True while an unsaved submit/transition/fail exists. Mid-quantum
  // cursor progress never dirties the registry — on reload the record is
  // demoted to queued and the checkpoint is authoritative — so a quantum
  // that changes no state skips the disk write entirely.
  bool dirty() const { return dirty_; }

 private:
  std::map<std::uint64_t, campaign_record> records_;
  std::uint64_t next_id_{1};
  std::uint64_t next_seq_{1};
  mutable bool dirty_{false};
};

}  // namespace clasp::svc
