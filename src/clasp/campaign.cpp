#include "clasp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp {

campaign_runner::campaign_runner(gcp_cloud* cloud, const network_view* view,
                                 const server_registry* registry,
                                 tsdb* store)
    : cloud_(cloud), view_(view), registry_(registry), store_(store) {
  if (cloud == nullptr || view == nullptr || registry == nullptr ||
      store == nullptr) {
    throw invalid_argument_error("campaign_runner: null dependency");
  }
}

void campaign_runner::resolve_metrics() {
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  namespace fam = obs::family;
  metrics_.hours = &reg.get_counter(fam::kCampaignHours);
  metrics_.tests = &reg.get_counter(fam::kCampaignTests);
  metrics_.tests_failed = &reg.get_counter(fam::kCampaignTestsFailed);
  metrics_.test_retries = &reg.get_counter(fam::kCampaignTestRetries);
  metrics_.tests_missed = &reg.get_counter(fam::kCampaignTestsMissed);
  metrics_.points = &reg.get_counter(fam::kCampaignPoints);
  metrics_.upload_failures = &reg.get_counter(fam::kCampaignUploadFailures);
  metrics_.fault_preempts = &reg.get_counter(fam::kFaultsPreempts);
  metrics_.fault_redeploys = &reg.get_counter(fam::kFaultsRedeploys);
  metrics_.fault_withdrawals = &reg.get_counter(fam::kFaultsWithdrawals);
  metrics_.fault_vm_down_hours = &reg.get_counter(fam::kFaultsVmDownHours);
  metrics_.fault_skipped = &reg.get_counter(fam::kFaultsSkippedTests);
  metrics_.cache_hits = &reg.get_counter(fam::kCacheHits);
  metrics_.cache_misses = &reg.get_counter(fam::kCacheMisses);
  metrics_.cursor_hours = &reg.get_gauge(fam::kCampaignCursorHours);
  metrics_.window_hours = &reg.get_gauge(fam::kCampaignWindowHours);
  metrics_.sessions = &reg.get_gauge(fam::kCampaignSessions);
  metrics_.fleet_servers = &reg.get_gauge(fam::kFleetServers);
  metrics_.fleet_vms = &reg.get_gauge(fam::kFleetVms);
  metrics_.sessions_total = &reg.get_gauge(fam::kSessionsTotal);
  metrics_.batch_groups = &reg.get_gauge(fam::kBatchGroupsPerHour);
  metrics_.pool_workers = &reg.get_gauge(fam::kPoolWorkers);
  metrics_.pool_batches = &reg.get_gauge(fam::kPoolBatches);
  metrics_.pool_tasks = &reg.get_gauge(fam::kPoolTasks);
  metrics_.pool_busy_seconds = &reg.get_gauge(fam::kPoolBusySeconds);
  metrics_.pool_last_batch = &reg.get_gauge(fam::kPoolLastBatchSize);
  metrics_.pool_utilization = &reg.get_gauge(fam::kPoolUtilization);
  metrics_.swarm_active = &reg.get_gauge(fam::kSwarmActiveProbes);
  metrics_.swarm_coverage = &reg.get_gauge(fam::kSwarmCoverageRatio);
  metrics_.swarm_stale = &reg.get_gauge(fam::kSwarmStaleTuples);
  metrics_.swarm_credits = &reg.get_counter(fam::kSwarmCreditsSpent);
  metrics_.dist_workers = &reg.get_gauge(fam::kDistWorkers);
  metrics_.dist_failovers = &reg.get_counter(fam::kDistFailovers);
  metrics_.hour_seconds =
      &reg.get_histogram(fam::kCampaignHourSeconds, obs::duration_buckets());
}

std::size_t campaign_runner::deploy(const campaign_config& config,
                                    const std::vector<std::size_t>& server_ids) {
  if (deployed_) throw state_error("campaign_runner: already deployed");
  if (server_ids.empty()) {
    throw invalid_argument_error("campaign_runner: empty server list");
  }
  if (config.tests_per_vm_hour == 0) {
    throw invalid_argument_error("campaign_runner: tests_per_vm_hour == 0");
  }
  if (!config.checkpoint_dir.empty() && config.checkpoint_every_hours == 0) {
    throw invalid_argument_error(
        "campaign_runner: checkpoint_every_hours == 0");
  }
  const obs::trace_span deploy_span(obs::phase::deploy);
  resolve_metrics();
  config_ = config;
  stream_seed_ = hash_tag(cloud_->net().config.seed,
                          "campaign:" + config.label + ":" + config.region);
  artifact_prefix_ = "raw/" + config.label + "/";

  const std::size_t vm_needed =
      (server_ids.size() + config.tests_per_vm_hour - 1) /
      config.tests_per_vm_hour;
  for (std::size_t i = 0; i < vm_needed; ++i) {
    vms_.push_back(cloud_->create_vm(config.region, config.tier));
    someta_.emplace_back(cloud_->vm(vms_.back()).type);
  }
  // Draw the fault schedule once, on the coordinator: workers only read
  // the plan (and derive per-(VM, hour) streams from it), so the
  // schedule can never depend on replay scheduling. Planned maintenance
  // windows reuse the manual-injection machinery. Plan windows land in
  // the CSR outage arrays grouped by slot, preserving plan order within
  // each slot (counting sort with a per-slot cursor).
  plan_ = fault_plan::build(config_.faults, stream_seed_, vms_.size(),
                            server_ids, config_.window);
  outage_offsets_.assign(vms_.size() + 1, 0);
  for (const vm_outage& outage : plan_.outages()) {
    ++outage_offsets_[outage.vm_slot + 1];
  }
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    outage_offsets_[v + 1] += outage_offsets_[v];
  }
  outage_windows_.resize(plan_.outages().size());
  {
    std::vector<std::uint32_t> cursor(outage_offsets_.begin(),
                                      outage_offsets_.end() - 1);
    for (const vm_outage& outage : plan_.outages()) {
      outage_windows_[cursor[outage.vm_slot]++] = outage.window;
    }
  }

  for (std::size_t i = 0; i < server_ids.size(); ++i) {
    const speed_server& server = registry_->server(server_ids[i]);
    const std::size_t vm_slot = i % vms_.size();
    sessions_.emplace_back(cloud_, view_, vms_[vm_slot], server,
                           config.test);
    // Mirror the session's two flattened paths into the shared arena
    // (download first — evaluate_hour and staging index paths 2i, 2i+1).
    arena_.add(sessions_.back().flat_download_path());
    arena_.add(sessions_.back().flat_upload_path());
    // Register this campaign's path links so the hourly prefill turns the
    // sweep's evaluations into table lookups, and note their slots: the
    // prefill refills only the links this campaign crosses.
    view_->link_cache().register_path(sessions_.back().download_path(),
                                      &cache_slots_);
    view_->link_cache().register_path(sessions_.back().upload_path(),
                                      &cache_slots_);

    // Intern the session's series once; the hourly loop appends through
    // integer refs with no string formatting or map lookups.
    const tag_set tags = {
        {"campaign", config_.label},
        {"region", config_.region},
        {"tier", to_string(config_.tier)},
        {"server", std::to_string(server.id)},
        {"network", std::to_string(server.network.value)},
        {"city", cloud_->net().geo->city(server.city).name},
    };
    series_refs_.push_back({
        store_->open_series("download_mbps", tags),
        store_->open_series("upload_mbps", tags),
        store_->open_series("latency_ms", tags),
        store_->open_series("download_loss", tags),
        store_->open_series("upload_loss", tags),
        store_->open_series("gt_episode", tags),
    });
    for (const series_ref ref : series_refs_.back().all()) {
      if (ref >= point_series_.size()) point_series_.resize(ref + 1);
      point_series_[ref] = true;
    }
    session_withdraw_.push_back(plan_.withdraw_hour(server.id));
    if (plan_.enabled()) {
      // Per-test outcomes only exist as a series under fault injection;
      // without it the store stays byte-identical to pre-fault builds.
      status_refs_.push_back(store_->open_series("test_status", tags));
    }
  }
  reserve_series();
  // Round-robin assignment in ascending session order makes the CSR
  // build a closed form: vms_[v]'s k-th session is v + k * vm_count.
  const std::size_t vm_count = vms_.size();
  vm_session_offsets_.assign(vm_count + 1, 0);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    ++vm_session_offsets_[i % vm_count + 1];
  }
  for (std::size_t v = 0; v < vm_count; ++v) {
    vm_session_offsets_[v + 1] += vm_session_offsets_[v];
  }
  vm_session_index_.resize(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    vm_session_index_[vm_session_offsets_[i % vm_count] + i / vm_count] =
        static_cast<std::uint32_t>(i);
  }
  std::sort(cache_slots_.begin(), cache_slots_.end());
  cache_slots_.erase(std::unique(cache_slots_.begin(), cache_slots_.end()),
                     cache_slots_.end());
  cache_slots_.shrink_to_fit();
  // Condition-cache slots are stable once assigned (registration only
  // appends), so one resolution after this campaign's register_path calls
  // serves the whole window.
  arena_.resolve(view_->link_cache());
  tallies_.resize(sessions_.size());
  if (config_.workers != 1) {
    pool_ = std::make_unique<thread_pool>(config_.workers);
  }
  cursor_ = config_.window.begin_at;
  deployed_ = true;
  if (obs::enabled()) {
    metrics_.sessions->set(static_cast<double>(sessions_.size()));
    metrics_.window_hours->set(static_cast<double>(config_.window.count()));
    metrics_.cursor_hours->set(0.0);
    metrics_.pool_workers->set(static_cast<double>(workers()));
    metrics_.fleet_servers->set(static_cast<double>(registry_->size()));
    metrics_.fleet_vms->set(static_cast<double>(vms_.size()));
    metrics_.sessions_total->set(static_cast<double>(sessions_.size()));
  }
  CLASP_LOG(info, "campaign")
      << config.label << "/" << config.region << ": " << vms_.size()
      << " VMs for " << sessions_.size() << " servers (" << workers()
      << " replay workers)";
  return vms_.size();
}

void campaign_runner::reserve_series() {
  const std::int64_t window_hours = config_.window.count();
  const std::size_t hours =
      window_hours > 0 ? static_cast<std::size_t>(window_hours) : 0;
  for (const session_series& refs : series_refs_) {
    for (const series_ref ref : refs.all()) store_->reserve(ref, hours);
  }
}

bool campaign_runner::run(const hour_step& step) {
  if (!run_until(config_.window.end_at, step)) return false;
  // Bill monthly storage exactly once per campaign: a resume after the
  // window completed (storage_billed_ restored from the checkpoint) must
  // not double-charge.
  if (!storage_billed_) charge_monthly_storage();
  // Final checkpoint captures the storage bill, so resuming a finished
  // campaign is a no-op.
  if (durable()) checkpoint(config_.checkpoint_dir);
  return true;
}

bool campaign_runner::run_until(hour_stamp stop, const hour_step& step) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  // First durable hour: anchor the run with a base checkpoint (possibly
  // the window-begin one), so every later publish has a base to build on.
  // resume() already read one.
  if (durable() && !published_) checkpoint(config_.checkpoint_dir);
  const std::int64_t begin = config_.window.begin_at.hours_since_epoch();
  while (cursor_ < stop) {
    if (interrupt_.load(std::memory_order_relaxed)) {
      interrupt_.store(false, std::memory_order_relaxed);
      if (durable()) checkpoint(config_.checkpoint_dir);
      CLASP_LOG(info, "campaign")
          << config_.label << "/" << config_.region << ": interrupted at "
          << cursor_.to_string();
      return false;
    }
    const hour_stamp at = cursor_;
    if (step) {
      step(at);
    } else {
      run_hour(at);
    }
    if (cursor_ == at) {
      throw state_error("campaign_runner: hour step did not commit the hour");
    }
    if (durable() &&
        (cursor_.hours_since_epoch() - begin) %
                static_cast<std::int64_t>(config_.checkpoint_every_hours) ==
            0) {
      checkpoint(config_.checkpoint_dir);
    }
  }
  return true;
}

void campaign_runner::charge_monthly_storage() {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  const double months =
      static_cast<double>(config_.window.count()) / (30.0 * 24.0);
  const double gb = cloud_->bucket(config_.region).total_megabytes() / 1024.0;
  cloud_->charge_storage_month(gb * months / 2.0);  // average occupancy
  storage_billed_ = true;
}

void campaign_runner::inject_vm_outage(std::size_t vm_slot,
                                       hour_range outage) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (vm_slot >= vms_.size()) {
    throw invalid_argument_error("campaign_runner: bad vm slot");
  }
  if (!(outage.begin_at < outage.end_at)) {
    throw invalid_argument_error("campaign_runner: empty outage window");
  }
  // Append at the end of the slot's CSR slice (the flat-array shift is
  // fine: injections are rare and coordinator-only).
  outage_windows_.insert(
      outage_windows_.begin() + outage_offsets_[vm_slot + 1], outage);
  for (std::size_t v = vm_slot + 1; v < outage_offsets_.size(); ++v) {
    ++outage_offsets_[v];
  }
}

bool campaign_runner::vm_down(std::size_t vm_slot, hour_stamp at) const {
  const std::uint32_t end = outage_offsets_[vm_slot + 1];
  for (std::uint32_t i = outage_offsets_[vm_slot]; i < end; ++i) {
    const hour_range& o = outage_windows_[i];
    if (o.begin_at <= at && at < o.end_at) return true;
  }
  return false;
}

rng campaign_runner::vm_stream(std::size_t vm_slot, hour_stamp at) const {
  // Stack-formatted stream tag: same bytes as the string concatenation
  // ("vm:<slot>:hour:<hours>"), so the derived stream is unchanged, but
  // staging a VM-hour no longer allocates to seed its RNG.
  char tag[64];
  const int len =
      std::snprintf(tag, sizeof(tag), "vm:%zu:hour:%lld", vm_slot,
                    static_cast<long long>(at.hours_since_epoch()));
  return rng(hash_tag(stream_seed_,
                      std::string_view(tag, static_cast<std::size_t>(len))));
}

void campaign_runner::begin_hour(hour_stamp at) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (!plan_.enabled()) return;
  // Server churn: the plan is authoritative for this campaign's staging;
  // retiring from the registry makes the withdrawal visible to later
  // crawls and selections (speed_server::withdrawn).
  if (churn_registry_ != nullptr) {
    for (const auto& [server_id, hour] : plan_.withdrawals()) {
      if (hour == at && !churn_registry_->retired(server_id)) {
        churn_registry_->retire_server(server_id);
        metrics_.fault_withdrawals->add(1);
        CLASP_LOG(info, "campaign")
            << config_.label << ": server " << server_id << " withdrew at "
            << at.to_string();
      }
    }
  }
  // VM lifecycle: preempt on a down-transition, redeploy on recovery.
  // Derived from the merged windows (manual + plan) so overlapping
  // windows produce one preempt/redeploy pair.
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const bool down = vm_down(v, at);
    const bool was_down =
        at > config_.window.begin_at && vm_down(v, at + (-1));
    if (down && !was_down) {
      cloud_->preempt_vm(vms_[v]);
      metrics_.fault_preempts->add(1);
    } else if (!down && was_down) {
      cloud_->redeploy_vm(vms_[v]);
      metrics_.fault_redeploys->add(1);
    }
  }
}

campaign_runner::hour_clock::time_point campaign_runner::hour_started() {
  return obs::enabled() ? hour_clock::now() : hour_clock::time_point{};
}

void campaign_runner::prepare_hour(hour_stamp at, thread_pool* pool) {
  // Prefill this campaign's slots of the shared hour-epoch cache before
  // any worker starts reading; slots another campaign already filled for
  // this hour are skipped. Then the batched arena sweep computes every
  // session path's metrics for the hour. Both are hour-top precomputation
  // no staging worker overlaps with, so both count as the prefill phase;
  // the pool's batch join publishes the writes (see condition_cache.hpp).
  const obs::trace_span span(obs::phase::prefill, at.hours_since_epoch());
  view_->link_cache().prefill(at, cache_slots_, pool);
  evaluate_hour(at, pool);
}

void campaign_runner::close_hour(hour_stamp at,
                                 hour_clock::time_point started) {
  cursor_ = at + 1;
  if (started != hour_clock::time_point{}) {
    publish_hour_metrics(
        std::chrono::duration<double>(hour_clock::now() - started).count());
  }
}

void campaign_runner::stage_slots(hour_stamp at, std::size_t begin,
                                  std::size_t end, thread_pool* pool,
                                  std::vector<vm_hour_staging>& out) {
  out.resize(end - begin);
  const obs::trace_span span(obs::phase::stage, at.hours_since_epoch());
  const auto stage = [&](std::size_t i) {
    stage_vm_hour_into(begin + i, at, out[i]);
  };
  if (pool != nullptr) {
    pool->parallel_for(out.size(), stage);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) stage(i);
  }
}

void campaign_runner::commit_staged(hour_stamp at,
                                    std::vector<vm_hour_staging>& group,
                                    hour_clock::time_point started) {
  const std::int64_t h = at.hours_since_epoch();
  // After staging, which never reads what begin_hour changes; the staged
  // charges still reach the cloud after it.
  {
    const obs::trace_span span(obs::phase::begin_hour, h);
    begin_hour(at);
  }
  {
    const obs::trace_span span(obs::phase::commit, h);
    for (std::size_t v = 0; v < vms_.size(); ++v) {
      commit_vm_hour(v, std::move(group[v]));
    }
  }
  close_hour(at, started);
}

void campaign_runner::run_hour(hour_stamp at) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  const hour_clock::time_point started = hour_started();
  prepare_hour(at, pool_.get());
  stage_slots(at, 0, vms_.size(), pool_.get(), staging_);
  commit_staged(at, staging_, started);
}

void campaign_runner::evaluate_hour(hour_stamp at, thread_pool* pool) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  const std::size_t paths = arena_.size();
  hour_metrics_.resize(paths);
  // Fixed-size blocks: large enough to amortize pool dispatch, small
  // enough to load-balance. Each block writes a disjoint output range and
  // path metrics are independent, so block boundaries and scheduling
  // cannot change any value.
  constexpr std::size_t kBlockPaths = 256;
  const std::size_t blocks = (paths + kBlockPaths - 1) / kBlockPaths;
  if (pool != nullptr && blocks > 1) {
    pool->parallel_for(blocks, [&](std::size_t b) {
      const std::size_t begin = b * kBlockPaths;
      view_->evaluate_batch(arena_, at, begin,
                            std::min(paths, begin + kBlockPaths),
                            hour_metrics_.data());
    });
  } else {
    view_->evaluate_batch(arena_, at, 0, paths, hour_metrics_.data());
  }
  swept_hour_ = at;
  batch_groups_ = blocks;
  if (obs::enabled()) {
    metrics_.batch_groups->set(static_cast<double>(blocks));
  }
}

void campaign_runner::stage_shard_hour(hour_stamp at, std::size_t slot_begin,
                                       std::size_t slot_end,
                                       std::vector<vm_hour_staging>& out) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (slot_begin >= slot_end || slot_end > vms_.size()) {
    throw invalid_argument_error("campaign_runner: bad shard slot range");
  }
  // Everything below runs on the calling thread. A dist worker is
  // typically a fork() of a process whose pool threads did not survive,
  // so this path must never dispatch to pool_.
  prepare_hour(at, nullptr);
  stage_slots(at, slot_begin, slot_end, nullptr, out);
}

void campaign_runner::commit_hour_group(hour_stamp at,
                                        std::vector<vm_hour_staging>&& group) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (at != cursor_) {
    throw state_error("campaign_runner: hour group does not match cursor");
  }
  if (group.size() != vms_.size()) {
    throw invalid_argument_error(
        "campaign_runner: hour group must hold one record per VM slot");
  }
  for (const vm_hour_staging& staged : group) {
    if (staged.at != at) {
      throw invalid_argument_error(
          "campaign_runner: hour group record staged for a different hour");
    }
  }
  // The same commit step as run_hour, so the store bytes cannot depend
  // on which process staged the records.
  commit_staged(at, group, hour_started());
}

void campaign_runner::publish_hour_metrics(double hour_seconds) {
  metrics_.hours->add(1);
  metrics_.hour_seconds->observe(hour_seconds);
  const std::int64_t done =
      cursor_.hours_since_epoch() - config_.window.begin_at.hours_since_epoch();
  metrics_.cursor_hours->set(static_cast<double>(done));
  if (pool_) {
    const pool_stats ps = pool_->stats();
    metrics_.pool_workers->set(static_cast<double>(ps.workers));
    metrics_.pool_batches->set(static_cast<double>(ps.batches));
    metrics_.pool_tasks->set(static_cast<double>(ps.tasks));
    metrics_.pool_busy_seconds->set(static_cast<double>(ps.busy_ns) / 1e9);
    metrics_.pool_last_batch->set(static_cast<double>(ps.last_batch_size));
    metrics_.pool_utilization->set(ps.utilization());
  }
  if (config_.heartbeat_every_hours > 0 &&
      done % static_cast<std::int64_t>(config_.heartbeat_every_hours) == 0) {
    emit_heartbeat();
  }
}

void campaign_runner::emit_heartbeat() const {
  // One grep-able INFO line per cadence tick. The hit ratio and the
  // failure counters read the process-wide registry, so with several
  // concurrent campaigns the line reports fleet-wide totals.
  const std::uint64_t hits = metrics_.cache_hits->value();
  const std::uint64_t misses = metrics_.cache_misses->value();
  const double hit_ratio =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  const std::int64_t done =
      cursor_.hours_since_epoch() - config_.window.begin_at.hours_since_epoch();
  char line[448];
  int len = std::snprintf(
      line, sizeof(line),
      "%s/%s hour=%lld/%lld tests=%zu failed=%llu retried=%llu missed=%zu "
      "cache_hit=%.1f%% fleet=%zu/%zu sessions=%zu batch_groups=%zu",
      config_.label.c_str(), config_.region.c_str(),
      static_cast<long long>(done),
      static_cast<long long>(config_.window.count()), tests_run_,
      static_cast<unsigned long long>(metrics_.tests_failed->value()),
      static_cast<unsigned long long>(metrics_.test_retries->value()),
      tests_missed_, 100.0 * hit_ratio, registry_->size(), vms_.size(),
      sessions_.size(), batch_groups_);
  if (durable() && last_checkpoint_hour_ >= 0 && len > 0 &&
      static_cast<std::size_t>(len) < sizeof(line)) {
    len += std::snprintf(
        line + len, sizeof(line) - static_cast<std::size_t>(len),
        " ckpt_age_h=%lld",
        static_cast<long long>(cursor_.hours_since_epoch() -
                               last_checkpoint_hour_));
  }
  if (pool_ && len > 0 && static_cast<std::size_t>(len) < sizeof(line)) {
    len += std::snprintf(
        line + len, sizeof(line) - static_cast<std::size_t>(len),
        " pool_util=%.2f", pool_->stats().utilization());
  }
  // Distributed replay: the coordinator keeps the worker gauge current,
  // so a sharded run's heartbeat shows the shard fleet and its failovers.
  if (metrics_.dist_workers->value() > 0 && len > 0 &&
      static_cast<std::size_t>(len) < sizeof(line)) {
    len += std::snprintf(
        line + len, sizeof(line) - static_cast<std::size_t>(len),
        " dist_workers=%.0f dist_failovers=%llu",
        metrics_.dist_workers->value(),
        static_cast<unsigned long long>(metrics_.dist_failovers->value()));
  }
  // Swarm pre-test gauges, when a swarm ran before this campaign (the
  // gauges hold the last pre-test round's view; credits accumulate).
  if (metrics_.swarm_credits->value() > 0 && len > 0 &&
      static_cast<std::size_t>(len) < sizeof(line)) {
    std::snprintf(
        line + len, sizeof(line) - static_cast<std::size_t>(len),
        " swarm_active=%.0f swarm_cov=%.2f swarm_stale=%.0f "
        "swarm_credits=%llu",
        metrics_.swarm_active->value(), metrics_.swarm_coverage->value(),
        metrics_.swarm_stale->value(),
        static_cast<unsigned long long>(metrics_.swarm_credits->value()));
  }
  log_message(log_level::info, "heartbeat", line);
}

void campaign_runner::stage_vm_hour_into(std::size_t vm_slot, hour_stamp at,
                                         vm_hour_staging& out) const {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (vm_slot >= vms_.size()) {
    throw invalid_argument_error("campaign_runner: bad vm slot");
  }
  if (swept_hour_ != at) {
    throw state_error(
        "campaign_runner: staging an hour evaluate_hour did not sweep");
  }
  out.at = at;
  out.points.clear();
  out.saturated_tests = 0;
  out.peak_cpu = 0.0;
  out.outcomes.clear();
  out.charges.reset();
  out.tests_run = 0;
  out.tests_missed = 0;
  out.upload_failed = false;
  const bool faults_on = plan_.enabled();
  const std::uint32_t s_begin = vm_session_offsets_[vm_slot];
  const std::uint32_t s_end = vm_session_offsets_[vm_slot + 1];
  if (vm_down(vm_slot, at)) {
    out.tests_missed = std::min<std::size_t>(s_end - s_begin,
                                             config_.tests_per_vm_hour);
    for (std::uint32_t i = s_begin; i < s_end; ++i) {
      const std::uint32_t si = vm_session_index_[i];
      // A withdrawn server's gap is the server's, not the VM's.
      const bool withdrawn = faults_on && session_withdraw_[si].has_value() &&
                             *session_withdraw_[si] <= at;
      out.outcomes.push_back({si,
                              withdrawn ? test_outcome::server_withdrawn
                                        : test_outcome::vm_down,
                              0});
    }
    return;
  }
  out.charges.add_vm_hour(vms_[vm_slot]);
  rng r = vm_stream(vm_slot, at);
  // The fault stream is separate from the measurement stream: with faults
  // off it is never drawn from (short-circuited below), so measurement
  // draws — and therefore every metric — are byte-identical to a
  // faults-free build.
  rng fr = faults_on ? plan_.vm_fault_stream(vm_slot, at) : rng(0);
  const double fail_rate = config_.faults.test_failure_rate;
  // Randomize the test order each hour (cron-artifact mitigation). The
  // shuffle buffer is thread-local so the per-(VM, hour) copy reuses its
  // allocation; the contents are fully overwritten before use, so worker
  // scheduling cannot leak state between stages.
  static thread_local std::vector<std::uint32_t> order;
  order.assign(vm_session_index_.begin() + s_begin,
               vm_session_index_.begin() + s_end);
  r.shuffle(order);
  const machine_type& machine = cloud_->vm(vms_[vm_slot]).type;
  double artifact_mb = 0.2;  // someta metadata baseline
  // Each attempt — including a retry of an aborted transfer — consumes
  // one test slot of the hour's budget (a slot is ~3.5 simulated minutes,
  // which is the capped backoff). Deployment sizes fleets so every
  // session fits without faults; only retries can starve a later session
  // of its slot.
  std::size_t slots = 0;
  bool starved = false;
  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    // The shuffle makes these accesses random; warming the next
    // session's metrics and state two iterations out overlaps the misses
    // with this iteration's noise-model math (advisory, value-neutral).
    if (oi + 2 < order.size()) {
      const std::uint32_t ahead = order[oi + 2];
      __builtin_prefetch(&hour_metrics_[2 * ahead]);
      __builtin_prefetch(&sessions_[ahead]);
      __builtin_prefetch(&series_refs_[ahead]);
    }
    const std::uint32_t si = order[oi];
    const speed_test_session& session = sessions_[si];
    if (faults_on && session_withdraw_[si].has_value() &&
        *session_withdraw_[si] <= at) {
      out.outcomes.push_back({si, test_outcome::server_withdrawn, 0});
      continue;
    }
    if (slots >= config_.tests_per_vm_hour) {
      out.outcomes.push_back({si, test_outcome::skipped_budget, 0});
      starved = true;
      continue;
    }
    std::uint8_t attempts = 0;
    test_outcome outcome = test_outcome::failed;
    while (slots < config_.tests_per_vm_hour) {
      ++slots;
      ++attempts;
      const bool aborted = faults_on && fr.bernoulli(fail_rate);
      // Path conditions are a pure function of (session, hour), so a
      // retry re-measures the same conditions with fresh client noise —
      // the batched metrics serve every attempt of the hour.
      const speed_test_report report = session.run_with_metrics(
          hour_metrics_[2 * si], hour_metrics_[2 * si + 1], at, r);
      if (aborted) {
        // Truncated transfer: the test produced no metrics, but the bytes
        // sent before the abort are still billed egress and a partial
        // artifact still lands in the hour's tarball.
        const double fraction = fr.uniform();
        out.charges.add_egress(config_.tier,
                               megabytes{report.volume_up.value * fraction});
        artifact_mb += (report.volume_down.value + report.volume_up.value) *
                       fraction * config_.artifact_fraction;
        if (attempts > config_.faults.max_retries) break;  // give up
        continue;
      }
      const double cpu = test_cpu_utilization(machine, report.download, r);
      if (cpu_saturated(cpu)) ++out.saturated_tests;
      out.peak_cpu = std::max(out.peak_cpu, cpu);
      const session_series& refs = series_refs_[si];
      out.points.push_back({refs.download, report.download.value});
      out.points.push_back({refs.upload, report.upload.value});
      out.points.push_back({refs.latency, report.latency.value});
      out.points.push_back({refs.download_loss, report.download_loss});
      out.points.push_back({refs.upload_loss, report.upload_loss});
      out.points.push_back(
          {refs.gt_episode, report.ground_truth_episode ? 1.0 : 0.0});
      // Egress billing: only the cloud->Internet direction is charged.
      out.charges.add_egress(config_.tier, report.volume_up);
      artifact_mb += (report.volume_down.value + report.volume_up.value) *
                     config_.artifact_fraction;
      ++out.tests_run;
      outcome = attempts > 1 ? test_outcome::ok_after_retry : test_outcome::ok;
      break;
    }
    out.outcomes.push_back({si, outcome, attempts});
  }
  if (starved && config_.faults.strict_hour_budget) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "campaign: retries exhausted vm %zu's %u-test hour budget",
                  vm_slot, config_.tests_per_vm_hour);
    throw budget_exceeded_error(msg);
  }
  // Artifact object name (same bytes as the old "raw/" + label + "/" +
  // at.to_string() + ... concatenation), assembled in a thread-local
  // buffer whose capacity survives across hours and handed to the
  // charge sheet's recycling put — zero allocations in steady state.
  char tail[64];
  std::size_t tail_len = at.format_to(tail, sizeof(tail));
  tail_len += static_cast<std::size_t>(
      std::snprintf(tail + tail_len, sizeof(tail) - tail_len, "/vm%zu.tar.gz",
                    vm_slot));
  static thread_local std::string object_name;
  object_name.clear();
  object_name.append(artifact_prefix_).append(tail, tail_len);
  // Upload failure is the last draw of the hour's fault stream: the
  // compressed artifacts never reach the bucket (no put, no storage
  // charge), but the hour's metrics already streamed out.
  if (faults_on && fr.bernoulli(config_.faults.upload_failure_rate)) {
    out.upload_failed = true;
    return;
  }
  out.charges.add_put_reusing(config_.region, object_name, artifact_mb);
}

void campaign_runner::commit_vm_hour(std::size_t vm_slot,
                                     vm_hour_staging&& staged) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  // Each staged point lands on a different series' tail — thousands of
  // cold cache lines per hour. Prefetching a few refs ahead overlaps the
  // misses; the distance is small enough that the lines survive in L1/L2
  // until their write. Values and order are untouched (advisory only).
  constexpr std::size_t kPrefetchAhead = 6;
  const std::size_t n_points = staged.points.size();
  for (std::size_t i = 0; i < n_points; ++i) {
    if (i + kPrefetchAhead < n_points) {
      store_->prefetch(staged.points[i + kPrefetchAhead].ref);
    }
    const staged_point& p = staged.points[i];
    store_->write(p.ref, staged.at, p.value);
  }
  // Health tallies merge here, in slot order on the coordinator, so they
  // are deterministic for any worker count — same contract as the points.
  // The same pass counts the hour's obs totals, added in bulk below.
  std::uint64_t failed = 0, retries = 0, skipped = 0, down = 0;
  const std::size_t n_outcomes = staged.outcomes.size();
  for (std::size_t i = 0; i < n_outcomes; ++i) {
    if (i + kPrefetchAhead < n_outcomes) {
      const staged_outcome& ahead = staged.outcomes[i + kPrefetchAhead];
      __builtin_prefetch(&tallies_[ahead.session], 1);
      if (!status_refs_.empty()) store_->prefetch(status_refs_[ahead.session]);
    }
    const staged_outcome& o = staged.outcomes[i];
    session_tally& tally = tallies_[o.session];
    switch (o.outcome) {
      case test_outcome::ok:
        ++tally.completed;
        break;
      case test_outcome::ok_after_retry:
        ++tally.completed;
        tally.retries += o.attempts - 1u;
        retries += o.attempts - 1u;
        break;
      case test_outcome::failed:
        ++tally.failed;
        tally.retries += o.attempts - 1u;
        retries += o.attempts - 1u;
        ++failed;
        break;
      case test_outcome::server_withdrawn:
        ++tally.withdrawn_hours;
        break;
      case test_outcome::vm_down:
        ++tally.down_hours;
        ++down;
        break;
      case test_outcome::skipped_budget:
        ++tally.skipped_hours;
        ++skipped;
        break;
    }
    if (!status_refs_.empty()) {
      store_->write(status_refs_[o.session], staged.at,
                    static_cast<double>(o.outcome));
    }
  }
  expected_store_points_ +=
      n_points + (status_refs_.empty() ? 0 : n_outcomes);
  if (staged.upload_failed) ++upload_failures_;
  if (obs::enabled()) {
    // Bulk adds at the hour barrier (coordinator thread): a handful of
    // sharded adds per VM-hour. The hot staging loop stays untouched.
    metrics_.tests->add(staged.tests_run);
    metrics_.tests_missed->add(staged.tests_missed);
    metrics_.points->add(staged.points.size());
    if (failed != 0) metrics_.tests_failed->add(failed);
    if (retries != 0) metrics_.test_retries->add(retries);
    if (skipped != 0) metrics_.fault_skipped->add(skipped);
    if (down != 0) metrics_.fault_vm_down_hours->add(down);
    if (staged.upload_failed) metrics_.upload_failures->add(1);
  }
  someta_.at(vm_slot).absorb(staged.tests_run, staged.saturated_tests,
                             staged.peak_cpu);
  cloud_->apply(staged.charges);
  tests_run_ += staged.tests_run;
  tests_missed_ += staged.tests_missed;
}

campaign_health campaign_runner::health() const {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  campaign_health h;
  h.window_hours = static_cast<std::size_t>(config_.window.count());
  h.upload_failures = upload_failures_;
  h.servers.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const session_tally& tally = tallies_[i];
    campaign_health::server_entry entry;
    entry.server_id = sessions_[i].server_id();
    entry.completed = tally.completed;
    entry.failed = tally.failed;
    entry.retries = tally.retries;
    entry.down_hours = tally.down_hours;
    entry.withdrawn_hours = tally.withdrawn_hours;
    entry.skipped_hours = tally.skipped_hours;
    // Every processed hour yields exactly one outcome per session, so the
    // tally sum is the hours scheduled so far (== window_hours after a
    // full run()) and completeness matches the injected schedule exactly.
    entry.scheduled_hours = tally.completed + tally.failed +
                            tally.down_hours + tally.withdrawn_hours +
                            tally.skipped_hours;
    h.total_retries += tally.retries;
    h.failed_tests += tally.failed;
    if (session_withdraw_[i].has_value()) ++h.withdrawn_servers;
    h.servers.push_back(entry);
  }
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    bool was_down = false;
    for (hour_stamp at = config_.window.begin_at; at < config_.window.end_at;
         ++at) {
      const bool down = vm_down(v, at);
      if (down) ++h.vm_downtime_hours;
      if (was_down && !down) ++h.vm_redeploys;
      was_down = down;
    }
  }
  return h;
}

double campaign_health::mean_completeness() const {
  if (servers.empty()) return 0.0;
  double sum = 0.0;
  for (const server_entry& entry : servers) sum += entry.completeness();
  return sum / static_cast<double>(servers.size());
}

std::vector<std::size_t> campaign_health::low_completeness_servers(
    double min_completeness) const {
  std::vector<std::size_t> ids;
  for (const server_entry& entry : servers) {
    if (entry.completeness() < min_completeness) {
      ids.push_back(entry.server_id);
    }
  }
  return ids;
}

}  // namespace clasp
