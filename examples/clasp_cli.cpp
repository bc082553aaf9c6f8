// clasp_cli — command-line driver for the platform.
//
//   clasp_cli select  --region us-west1
//   clasp_cli run     --region us-west1 --days 7 [--tier standard]
//                     [--csv out.csv] [--seed 42]
//   clasp_cli pilot   --region us-east4
//   clasp_cli cost    --region us-east1 --days 3
//
// Campaign service mode (src/svc/): `clasp_cli serve` turns the binary
// into a resident multi-tenant daemon that time-slices submitted
// campaigns under a shared worker budget, and the remaining verbs are
// its clients over the control socket:
//
//   clasp_cli serve    --config svc.ini [--socket PATH]
//   clasp_cli submit   --tenant alice --region us-west1 --days 3
//   clasp_cli status   [--id N]
//   clasp_cli pause    --id N      clasp_cli resume --id N
//   clasp_cli cancel   --id N      clasp_cli shutdown
//
// SIGINT/SIGTERM to the daemon drain gracefully: every running campaign
// checkpoints at the next hour barrier, the queue is persisted, and the
// process exits 130; a restarted daemon resumes where it left off.
//
// `run` executes a topology campaign for the given number of days and can
// dump the download series as CSV for external plotting; `pilot` prints
// only the bdrmap scan summary; `cost` prints the billing breakdown.
//
// Durability: `run --checkpoint-dir DIR` checkpoints the campaign as it
// goes and Ctrl-C stops it cleanly at the next hour boundary (after a
// final checkpoint). `run --checkpoint-dir DIR --resume` continues a
// killed run; the finished output is byte-identical to an uninterrupted
// one (see DESIGN.md, "Durability & crash recovery").
//
// Observability: `--metrics-out FILE` enables the obs subsystem and
// writes a Prometheus text exposition to FILE (plus FILE.json) when the
// command finishes; `--heartbeat-every N` logs one INFO progress line
// every N simulated hours. Both are purely observational — campaign
// output is byte-identical with them on or off. CLASP_LOG=debug|info|
// warn|error sets the log level (see DESIGN.md, "Observability").
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "clasp/cli.hpp"
#include "clasp/config_loader.hpp"
#include "clasp/platform.hpp"
#include "clasp/report.hpp"
#include "dist/coordinator.hpp"
#include "obs/export.hpp"
#include "svc/control.hpp"
#include "svc/service.hpp"
#include "util/log.hpp"

namespace {

using namespace clasp;

// The campaign a SIGINT/SIGTERM should interrupt. request_interrupt only
// stores a relaxed atomic flag, so calling it from the handler is safe.
// SIGTERM gets the same graceful treatment as Ctrl-C: a batch scheduler
// or `kill` stops the run at the next hour boundary after a final
// checkpoint, instead of tearing it down mid-hour.
std::atomic<campaign_runner*> g_active_campaign{nullptr};

// Daemon mode: the same signals mean "drain" — checkpoint every running
// campaign at the next hour barrier, persist the queue, exit 130.
// request_drain only touches atomics, so it is handler-safe too.
std::atomic<svc::campaign_service*> g_active_service{nullptr};

extern "C" void handle_stop_signal(int sig) {
  if (svc::campaign_service* service = g_active_service.load()) {
    service->request_drain();
  } else if (campaign_runner* campaign = g_active_campaign.load()) {
    campaign->request_interrupt();
  } else {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: clasp_cli <select|pilot|run|cost|report> [--region R] "
               "[--days N] [--tier premium|standard] [--csv FILE] "
               "[--seed S] [--config FILE] [--workers N] "
               "[--fleet-scale N] [--faults off|low|high] "
               "[--swarm off|low|high] "
               "[--checkpoint-dir DIR] [--checkpoint-every HOURS] "
               "[--resume] [--shards N] [--metrics-out FILE] "
               "[--heartbeat-every HOURS]\n"
               "  --workers N   campaign replay threads (0 = hardware "
               "concurrency); results are identical for any N\n"
               "  --fleet-scale N  measure N replicas of every selected "
               "server (default 1 = the paper-scale fleet); the generated "
               "world and the base fleet's results are unchanged\n"
               "  --faults      deterministic fault injection preset "
               "(server churn, transient failures, VM preemption); run "
               "prints a campaign health report when enabled\n"
               "  --swarm       churn-tolerant community probe swarm for "
               "the differential pre-test (default off = fixed panel); "
               "low/high set join/leave rates, per-probe credits and "
               "hourly rate limits\n"
               "  --checkpoint-dir DIR  checkpoint the campaign under DIR "
               "as it runs; Ctrl-C then stops cleanly at the next hour\n"
               "  --checkpoint-every H  hours between checkpoints "
               "(default 24; a resume re-runs the hours since the last one)\n"
               "  --resume      continue a killed run from DIR's latest "
               "checkpoint; output is byte-identical to an uninterrupted "
               "run\n"
               "  --shards N    distributed replay across N forked worker "
               "processes with heartbeats and shard failover; a killed "
               "worker is respawned and output stays byte-identical to "
               "--shards 1\n"
               "  --metrics-out FILE    write Prometheus metrics to FILE "
               "(and JSON to FILE.json) when the command finishes\n"
               "  --heartbeat-every H   log one progress line every H "
               "simulated hours (cursor, tests, cache hits, checkpoint age)\n"
               "service mode: clasp_cli <serve|submit|status|pause|resume|"
               "cancel|shutdown> [--socket PATH]\n"
               "  serve         run the campaign service daemon (SIGINT/"
               "SIGTERM drain: checkpoint, persist queue, exit 130)\n"
               "  submit        queue a campaign: --tenant NAME plus any of "
               "--region --days --seed --workers --shards --fleet-scale "
               "--faults --durable on|off\n"
               "  status        service summary + campaign table "
               "(--id N for one campaign)\n"
               "  pause/resume/cancel --id N   control one campaign; a "
               "paused durable campaign costs only its checkpoint\n"
               "  shutdown      drain the daemon remotely\n");
}

int cmd_select(clasp_platform& platform, const cli_options& opts) {
  const auto& sel = platform.select_topology(opts.region);
  std::printf("%s: pilot links %zu, links traversed by US servers %zu, "
              "servers selected %zu (coverage %.1f%%)\n",
              opts.region.c_str(), sel.pilot.links.size(),
              sel.links_traversed_by_servers, sel.selected.size(),
              100.0 * sel.coverage());
  for (const selected_server& s : sel.selected) {
    std::printf("  %-46s AS%-7u via %s (AS path %zu, %.1f ms)\n",
                platform.registry().server(s.server_id).name.c_str(),
                s.neighbor.value, s.far_side.to_string().c_str(),
                s.as_path_len, s.rtt.value);
  }
  // With the community swarm enabled (--swarm low|high or [swarm] in the
  // config) also run the §3.1 differential pre-test through it and show
  // what churn did to tuple coverage.
  if (platform.config().differential.swarm.enabled) {
    const differential_selection_result& diff =
        platform.select_differential(opts.region);
    const swarm_report& s = diff.swarm;
    std::printf(
        "differential pre-test (swarm): %.0f/%zu probes online on average, "
        "%.1f%% tuple coverage, %zu substitutions, %zu missed rounds, "
        "%zu stale tuples, %zu credits spent\n",
        s.mean_active, s.probe_population, 100.0 * s.mean_coverage,
        s.substitutions, s.missed_rounds, s.stale_tuples, s.credits_spent);
    std::printf(
        "  %zu tuples measured (%zu incomplete), %zu candidates -> "
        "%zu servers%s\n",
        diff.tuples_measured, diff.tuples_incomplete, diff.candidates.size(),
        diff.selected.size(),
        diff.platform_exhausted ? " [platform exhausted]" : "");
  }
  return 0;
}

int cmd_pilot(clasp_platform& platform, const cli_options& opts) {
  const auto& sel = platform.select_topology(opts.region);
  std::printf("%s pilot: %zu interdomain links discovered\n",
              opts.region.c_str(), sel.pilot.links.size());
  std::printf("top neighbors by path count:\n");
  std::vector<border_observation> links = sel.pilot.links;
  std::sort(links.begin(), links.end(),
            [](const border_observation& a, const border_observation& b) {
              return a.path_count > b.path_count;
            });
  for (std::size_t i = 0; i < std::min<std::size_t>(links.size(), 15); ++i) {
    std::printf("  %-16s AS%-8u %5zu paths, min rtt %.1f ms\n",
                links[i].far_side.to_string().c_str(),
                links[i].neighbor.value, links[i].path_count,
                links[i].min_rtt.value);
  }
  return 0;
}

int cmd_run(clasp_platform& platform, const cli_options& opts) {
  const hour_range window{
      hour_stamp::from_civil({2020, 5, 1}, 0),
      hour_stamp::from_civil({2020, 5, 1}, 0) + opts.days * 24};
  campaign_runner& campaign =
      platform.start_topology_campaign(opts.region, window);
  if (campaign.durable()) {
    if (opts.resume) {
      if (campaign.resume(campaign.config().checkpoint_dir)) {
        std::printf("resumed from %s at %s\n",
                    campaign.config().checkpoint_dir.c_str(),
                    campaign.cursor().to_string().c_str());
      } else {
        std::printf("no checkpoint under %s, starting fresh\n",
                    campaign.config().checkpoint_dir.c_str());
      }
    }
    // Ctrl-C and SIGTERM now mean "checkpoint and stop at the next hour
    // boundary".
    g_active_campaign.store(&campaign);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
  }
  bool completed;
  const std::size_t shards = platform.config().campaign_shards;
  if (shards > 1) {
    // Distributed replay: fork a worker per shard under a coordinator.
    // Killing any worker (kill -9 <pid>; pids are logged at spawn with
    // CLASP_LOG=info) triggers failover, and the output stays
    // byte-identical to --shards 1.
    dist::dist_config dc;
    dc.shards = shards;
    dist::shard_coordinator coordinator(campaign, dc);
    std::printf("distributed replay: %zu worker shards over %zu VMs\n",
                coordinator.shards(), campaign.vm_count());
    completed = coordinator.run();
    const dist::dist_report& r = coordinator.report();
    if (r.failovers > 0 || r.resends > 0 || r.timeouts > 0) {
      std::printf(
          "dist recovery: %zu failovers (%zu respawns), %zu resends, "
          "%zu CRC rejects, %zu timeouts\n",
          r.failovers, r.respawns, r.resends, r.crc_rejects, r.timeouts);
    }
  } else {
    completed = campaign.run();
  }
  g_active_campaign.store(nullptr);
  if (!completed) {
    std::printf("interrupted at %s; rerun with --resume to continue\n",
                campaign.cursor().to_string().c_str());
    return 130;
  }
  std::printf("ran %zu tests on %zu servers from %zu VMs\n",
              campaign.tests_run(), campaign.session_count(),
              campaign.vm_count());

  if (campaign.config().faults.enabled) {
    const campaign_health health = campaign.health();
    std::printf(
        "campaign health: %.1f%% mean completeness, %zu retries, "
        "%zu failed tests, %zu servers withdrawn, %zu VM redeploys "
        "(%zu downtime hours), %zu uploads lost\n",
        100.0 * health.mean_completeness(), health.total_retries,
        health.failed_tests, health.withdrawn_servers, health.vm_redeploys,
        health.vm_downtime_hours, health.upload_failures);
    const auto excluded = health.low_completeness_servers(0.8);
    std::printf("servers below 80%% completeness (excluded from "
                "aggregation): %zu\n",
                excluded.size());
  }

  const auto data = platform.download_series("topology", opts.region);
  std::size_t congested = 0;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    if (summarize_server(*data.series[i], data.tz[i], 0.5).congested_server) {
      ++congested;
    }
  }
  std::printf("congested servers (>10%% of days with events): %zu/%zu\n",
              congested, data.series.size());

  if (!opts.csv_path.empty()) {
    std::ofstream out(opts.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.csv_path.c_str());
      return 1;
    }
    tag_filter filter;
    filter.required["campaign"] = "topology";
    filter.required["region"] = opts.region;
    platform.store().export_csv(out, "download_mbps", filter);
    std::printf("wrote download series to %s\n", opts.csv_path.c_str());
  }
  return 0;
}

int cmd_report(clasp_platform& platform, const cli_options& opts) {
  const hour_range window{
      hour_stamp::from_civil({2020, 5, 1}, 0),
      hour_stamp::from_civil({2020, 5, 1}, 0) + opts.days * 24};
  platform.start_topology_campaign(opts.region, window).run();
  std::fputs(render_campaign_report(platform, opts.region).c_str(), stdout);
  return 0;
}

int cmd_cost(clasp_platform& platform, const cli_options& opts) {
  const hour_range window{
      hour_stamp::from_civil({2020, 5, 1}, 0),
      hour_stamp::from_civil({2020, 5, 1}, 0) + opts.days * 24};
  campaign_runner& campaign =
      platform.start_topology_campaign(opts.region, window);
  campaign.run();
  const cost_report& costs = platform.cloud().costs();
  std::printf("%d-day %s campaign (%zu servers):\n", opts.days,
              opts.region.c_str(), campaign.session_count());
  std::printf("  VMs:     $%8.2f\n", costs.vm_usd);
  std::printf("  egress:  $%8.2f\n", costs.egress_usd);
  std::printf("  storage: $%8.2f\n", costs.storage_usd);
  std::printf("  total:   $%8.2f  (~$%.0f/month at this cadence)\n",
              costs.total(), costs.total() * 30.0 / opts.days);
  return 0;
}

// --- campaign service verbs -------------------------------------------

int cmd_serve(const platform_config& cfg) {
  svc::campaign_service service(cfg);
  g_active_service.store(&service);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::printf("campaign service listening on %s (budget %zu worker units, "
              "quantum %u h)\n",
              cfg.service.socket.c_str(), cfg.service.worker_budget,
              cfg.service.quantum_hours);
  const int rc = service.serve();
  g_active_service.store(nullptr);
  if (rc == 130) {
    std::printf("drained; rerun `clasp_cli serve` to resume the queue\n");
  }
  return rc;
}

void print_campaign_row(const svc::campaign_status& c) {
  const std::int64_t total = c.end_hours - c.begin_hours;
  const std::int64_t done = c.cursor_hours - c.begin_hours;
  const double pct = total > 0 ? 100.0 * static_cast<double>(done) /
                                     static_cast<double>(total)
                               : 0.0;
  std::printf("  #%-4llu %-12s %-9s %-12s %dd seed %-10llu %lld/%lld h "
              "(%3.0f%%)%s%s%s\n",
              static_cast<unsigned long long>(c.id), c.tenant.c_str(),
              c.state.c_str(), c.region.c_str(), c.days,
              static_cast<unsigned long long>(c.seed),
              static_cast<long long>(done), static_cast<long long>(total),
              pct, c.durable ? "" : " [ephemeral]",
              c.preemptions > 0 ? " [preempted]" : "",
              c.error.empty() ? "" : (" error: " + c.error).c_str());
}

void print_service_summary(const svc::service_status& s) {
  std::printf("service: %llu queued, %llu admitted, %llu running, "
              "%llu paused, %llu done, %llu failed, %llu cancelled | "
              "budget %llu/%llu units, %llu resident sessions\n",
              static_cast<unsigned long long>(s.queued),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.running),
              static_cast<unsigned long long>(s.paused),
              static_cast<unsigned long long>(s.done),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.cancelled),
              static_cast<unsigned long long>(s.reserved_units),
              static_cast<unsigned long long>(s.worker_budget),
              static_cast<unsigned long long>(s.resident));
  std::printf("scheduler: %llu quanta, %llu preemptions, %llu evictions, "
              "%llu cold starts, %llu warm resumes\n",
              static_cast<unsigned long long>(s.quanta),
              static_cast<unsigned long long>(s.preemptions),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.cold_starts),
              static_cast<unsigned long long>(s.warm_resumes));
}

int cmd_control(const platform_config& cfg, const cli_options& opts) {
  svc::control_request req;
  req.tenant = opts.tenant;
  req.id = opts.id;
  if (opts.command == "submit") {
    req.op = svc::control_op::submit;
    req.spec.region = opts.region;
    req.spec.days = opts.days;
    req.spec.seed = opts.seed;
    req.spec.workers = opts.workers;
    req.spec.shards = opts.shards;
    req.spec.fleet_scale = opts.fleet_scale;
    req.spec.faults = opts.faults;
    req.spec.durable = opts.durable != 0;  // -1 (default) and 1 mean on
  } else if (opts.command == "status") {
    req.op = svc::control_op::status;
  } else if (opts.command == "pause") {
    req.op = svc::control_op::pause;
  } else if (opts.command == "resume") {
    req.op = svc::control_op::resume;
  } else if (opts.command == "cancel") {
    req.op = svc::control_op::cancel;
  } else {  // shutdown
    req.op = svc::control_op::shutdown;
  }
  const std::string socket =
      opts.socket.empty() ? cfg.service.socket : opts.socket;
  try {
    svc::control_client client(socket);
    const svc::control_reply reply = client.call(req);
    if (!reply.ok) {
      std::fprintf(stderr, "clasp_cli: %s\n", reply.error.c_str());
      return 1;
    }
    switch (req.op) {
      case svc::control_op::submit:
        std::printf("submitted campaign %llu for tenant %s\n",
                    static_cast<unsigned long long>(reply.id),
                    opts.tenant.c_str());
        break;
      case svc::control_op::status:
        print_service_summary(reply.service);
        for (const svc::campaign_status& c : reply.campaigns) {
          print_campaign_row(c);
        }
        break;
      case svc::control_op::pause:
        std::printf("paused campaign %llu\n",
                    static_cast<unsigned long long>(opts.id));
        break;
      case svc::control_op::resume:
        std::printf("resumed campaign %llu\n",
                    static_cast<unsigned long long>(opts.id));
        break;
      case svc::control_op::cancel:
        std::printf("cancelled campaign %llu\n",
                    static_cast<unsigned long long>(opts.id));
        break;
      case svc::control_op::shutdown:
        std::printf("daemon draining\n");
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clasp_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  init_log_from_env();
  cli_options opts;
  const cli_parse_result parsed = parse_cli_args(argc, argv, opts);
  if (!parsed.ok) {
    if (!parsed.error.empty()) {
      std::fprintf(stderr, "clasp_cli: %s\n", parsed.error.c_str());
    }
    usage();
    return 2;
  }
  platform_config cfg;
  if (!opts.config_path.empty()) {
    try {
      cfg = load_platform_config_file(opts.config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  cfg.internet.seed = opts.seed;
  if (opts.workers >= 0) {
    cfg.campaign_workers = static_cast<unsigned>(opts.workers);
  }
  if (opts.fleet_scale > 0) {
    cfg.fleet_scale = static_cast<std::size_t>(opts.fleet_scale);
  }
  if (!opts.faults.empty()) {
    cfg.campaign_faults = fault_config::preset(opts.faults);
  }
  if (!opts.swarm.empty()) {
    cfg.differential.swarm = swarm_config::preset(opts.swarm);
  }
  if (!opts.checkpoint_dir.empty()) {
    cfg.campaign_checkpoint_dir = opts.checkpoint_dir;
  }
  if (opts.checkpoint_every > 0) {
    cfg.campaign_checkpoint_every_hours =
        static_cast<unsigned>(opts.checkpoint_every);
  }
  if (opts.shards > 0) {
    cfg.campaign_shards = static_cast<std::size_t>(opts.shards);
  }
  if (!opts.metrics_out.empty()) cfg.obs_metrics = true;
  if (opts.heartbeat_every > 0) {
    cfg.obs_metrics = true;
    cfg.obs_heartbeat_every_hours =
        static_cast<unsigned>(opts.heartbeat_every);
    // The heartbeat goes through the info level; a default-warn build
    // would swallow it.
    if (get_log_level() > log_level::info) set_log_level(log_level::info);
  }
  if (!opts.socket.empty()) cfg.service.socket = opts.socket;

  // Service verbs never build a platform here: the client verbs only dial
  // the control socket, and the daemon constructs one platform per
  // resident campaign session itself.
  if (opts.command == "serve") {
    try {
      const int rc = cmd_serve(cfg);
      if (!opts.metrics_out.empty()) {
        obs::write_metrics_files(opts.metrics_out);
        std::printf("wrote metrics to %s and %s.json\n",
                    opts.metrics_out.c_str(), opts.metrics_out.c_str());
      }
      return rc;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "clasp_cli: %s\n", e.what());
      return 1;
    }
  }
  if (opts.command == "submit" || opts.command == "status" ||
      opts.command == "pause" || opts.command == "resume" ||
      opts.command == "cancel" || opts.command == "shutdown") {
    return cmd_control(cfg, opts);
  }

  clasp_platform platform(cfg);

  int rc = 0;
  if (opts.command == "select") {
    rc = cmd_select(platform, opts);
  } else if (opts.command == "pilot") {
    rc = cmd_pilot(platform, opts);
  } else if (opts.command == "run") {
    rc = cmd_run(platform, opts);
  } else if (opts.command == "report") {
    rc = cmd_report(platform, opts);
  } else {
    rc = cmd_cost(platform, opts);
  }
  if (!opts.metrics_out.empty()) {
    try {
      obs::write_metrics_files(opts.metrics_out);
      std::printf("wrote metrics to %s and %s.json\n",
                  opts.metrics_out.c_str(), opts.metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  return rc;
}
