// The campaign service daemon: registry + admission + scheduler behind
// one control socket.
//
// Single-threaded by construction: the serve loop alternates between
// draining the control socket and running one scheduler quantum, so
// every registry mutation, admission decision and checkpoint publish
// happens on one thread and the daemon needs no locks. Control latency
// is bounded by one quantum (a few simulated hours of replay); a drain
// signal interrupts even that at the next hour barrier via
// campaign_runner::request_interrupt.
//
// Everything the daemon owns lives under service.state_dir:
//
//   <state_dir>/registry.bin        durable queue (CRC + tmp/rename)
//   <state_dir>/ckpt/<tenant>-<id>/ per-campaign checkpoints
//
// A kill -9 at any instant loses at most one checkpoint interval per
// campaign: the registry snapshot is crash-atomic, admitted/running
// records demote to queued on reload, and re-admission warm-resumes each
// campaign from its checkpoint — the replay determinism guarantees the
// rerun hours commit the same bytes the lost ones would have.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "svc/admission.hpp"
#include "svc/control.hpp"
#include "svc/registry.hpp"
#include "svc/scheduler.hpp"

namespace clasp::svc {

class campaign_service {
 public:
  // `base` is the daemon's world template (the batch config file plus
  // its [service] section). Reloads <state_dir>/registry.bin when one
  // exists and demotes admitted/running records back to queued.
  explicit campaign_service(platform_config base);

  // --- direct API (the control plane calls these; tests too) ---
  // Admission-checked submission; returns the campaign id.
  std::uint64_t submit(const std::string& tenant, campaign_spec spec);
  // admitted/running -> paused: checkpoint (durable) and free its budget.
  void pause_campaign(std::uint64_t id);
  // paused -> queued: re-enters admission next tick.
  void resume_campaign(std::uint64_t id);
  // any active state -> cancelled; the session is dropped un-checkpointed.
  void cancel_campaign(std::uint64_t id);

  // One wire request -> one reply. Typed clasp errors become error
  // replies, never daemon exits.
  control_reply handle(const control_request& req);

  // One scheduling step: admit, pick the next admitted/running campaign
  // round-robin by submit order, run one quantum, harvest completion.
  // Returns false when nothing was runnable.
  bool tick();
  // Drive tick() until no campaign is queued, admitted or running — the
  // in-process equivalent of letting the daemon idle (tests and the
  // bench use this; serve() interleaves control traffic).
  void run_to_idle();

  // Daemon loop: listen on service.socket, interleave control rounds
  // with ticks. Returns 0 after a shutdown request (graceful drain) or
  // 130 after request_drain() — both checkpoint every running campaign
  // and persist the registry first.
  int serve();

  // Signal-safe: flag the drain and interrupt the in-flight quantum at
  // its next hour barrier.
  void request_drain();
  bool drain_requested() const {
    return drain_.load(std::memory_order_relaxed);
  }

  // Checkpoint everything + persist the registry (the drain path; also
  // callable mid-run).
  void drain();
  void persist() const;

  campaign_registry& registry() { return registry_; }
  campaign_scheduler& scheduler() { return scheduler_; }
  const admission_controller& admission() const { return admission_; }
  const platform_config& base_config() const { return base_; }
  std::string registry_path() const;
  std::string results_path(std::uint64_t id) const;

  service_status status_summary() const;
  campaign_status status_of(std::uint64_t id) const;

 private:
  std::uint64_t pick_next_runnable();  // 0 = nothing runnable
  void run_one_quantum(std::uint64_t id);
  void harvest(std::uint64_t id, campaign_session& session);
  void publish_metrics();
  void heartbeat() const;

  platform_config base_;
  service_settings settings_;
  campaign_registry registry_;
  admission_controller admission_;
  campaign_scheduler scheduler_;
  std::atomic<bool> drain_{false};
  std::uint64_t last_scheduled_seq_{0};  // round-robin cursor
};

}  // namespace clasp::svc
