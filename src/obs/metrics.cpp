#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/families.hpp"
#include "util/error.hpp"

namespace clasp::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {
std::atomic<std::size_t> g_next_shard{0};
}  // namespace

std::size_t assign_shard() {
  return g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShardCount;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t counter::value() const {
  std::uint64_t total = 0;
  for (const shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void counter::reset() {
  for (shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

histogram::histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  if (bounds_.empty()) {
    throw invalid_argument_error("histogram: no bucket bounds");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw invalid_argument_error("histogram: bounds not ascending");
  }
  for (shard& s : shards_) {
    s.counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

void histogram::observe(double x) {
  if (!enabled()) return;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  shard& s = shards_[detail::shard_index()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  // Sum kept in nanounits so a plain fetch_add works; histograms here
  // record durations in seconds, far from the ~584-year overflow point.
  const double nanos = x * 1e9;
  const std::uint64_t add =
      nanos <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(nanos));
  s.sum_nanos.fetch_add(add, std::memory_order_relaxed);
}

histogram::snapshot histogram::read() const {
  snapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  std::uint64_t sum_nanos = 0;
  for (const shard& s : shards_) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      out.counts[i] += s.counts[i].load(std::memory_order_relaxed);
    }
    sum_nanos += s.sum_nanos.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : out.counts) out.count += c;
  out.sum = static_cast<double>(sum_nanos) / 1e9;
  return out;
}

double histogram::quantile(double q) const {
  return snapshot_quantile(read(), q);
}

double snapshot_quantile(const histogram::snapshot& s, double q) {
  if (s.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(s.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += s.counts[i];
    if (static_cast<double>(cum) < target) continue;
    if (i == s.bounds.size()) return s.bounds.back();  // overflow bucket
    const double lo = i == 0 ? 0.0 : s.bounds[i - 1];
    const double hi = s.bounds[i];
    if (s.counts[i] == 0) return hi;
    const double frac =
        (target - static_cast<double>(prev)) / static_cast<double>(s.counts[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return s.bounds.back();
}

void histogram::reset() {
  for (shard& s : shards_) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
    s.sum_nanos.store(0, std::memory_order_relaxed);
  }
}

metrics_registry& metrics_registry::instance() {
  static metrics_registry reg;
  return reg;
}

counter& metrics_registry::get_counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<counter>();
  return *slot;
}

gauge& metrics_registry::get_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<gauge>();
  return *slot;
}

histogram& metrics_registry::get_histogram(
    const std::string& name, std::span<const double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<histogram>(upper_bounds);
  return *slot;
}

void metrics_registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::map<std::string, std::uint64_t> metrics_registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, double> metrics_registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, histogram::snapshot> metrics_registry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, histogram::snapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h->read();
  return out;
}

std::span<const double> duration_buckets() {
  static const double kBounds[] = {0.0005, 0.002, 0.01, 0.05,
                                   0.25,   1.0,   5.0,  30.0};
  return kBounds;
}

void register_core_families() {
  metrics_registry& reg = metrics_registry::instance();
  for (const char* name :
       {family::kCampaignHours, family::kCampaignTests,
        family::kCampaignTestsFailed, family::kCampaignTestRetries,
        family::kCampaignTestsMissed, family::kCampaignPoints,
        family::kCampaignUploadFailures, family::kCacheHits,
        family::kCacheMisses, family::kCachePrefills,
        family::kCachePrefillLinks, family::kTsdbSnapshots,
        family::kTsdbSnapshotBytes, family::kTsdbRestores,
        family::kCheckpointPublishes, family::kCheckpointGcRemoved,
        family::kCheckpointResumes, family::kCheckpointBytesWritten,
        family::kCheckpointCompactions, family::kFaultsPreempts,
        family::kFaultsRedeploys, family::kFaultsWithdrawals,
        family::kFaultsVmDownHours, family::kFaultsSkippedTests,
        family::kSwarmCreditsSpent, family::kSwarmSubstitutions,
        family::kSwarmMissedRounds, family::kSwarmRateLimited,
        family::kDistGroupsMerged, family::kDistRecords,
        family::kDistHeartbeats, family::kDistTimeouts, family::kDistResends,
        family::kDistCrcRejects, family::kDistFailovers,
        family::kDistRespawns, family::kSvcSubmissions,
        family::kSvcCompletions, family::kSvcFailures,
        family::kSvcCancellations, family::kSvcPreemptions,
        family::kSvcEvictions, family::kSvcQuanta, family::kSvcColdStarts,
        family::kSvcWarmResumes, family::kSvcControlRequests,
        family::kSvcDrains}) {
    reg.get_counter(name);
  }
  for (const char* name :
       {family::kCampaignCursorHours, family::kCampaignWindowHours,
        family::kCampaignSessions, family::kPoolWorkers, family::kPoolBatches,
        family::kPoolTasks, family::kPoolBusySeconds,
        family::kPoolLastBatchSize, family::kPoolUtilization,
        family::kCheckpointLastHour, family::kFaultsPlannedWithdrawals,
        family::kFaultsPlannedOutages, family::kFaultsPlannedOutageHours,
        family::kFleetServers, family::kFleetVms, family::kSessionsTotal,
        family::kBatchGroupsPerHour, family::kSwarmProbes,
        family::kSwarmActiveProbes, family::kSwarmCoverageRatio,
        family::kSwarmStaleTuples, family::kDistWorkers,
        family::kDistBarrierHour, family::kSvcQueued, family::kSvcAdmitted,
        family::kSvcRunning, family::kSvcPaused, family::kSvcResident,
        family::kSvcReservedUnits, family::kSvcWorkerBudget}) {
    reg.get_gauge(name);
  }
  for (const char* name :
       {family::kCampaignHourSeconds, family::kTsdbSnapshotSeconds,
        family::kCheckpointPublishSeconds, family::kDistBarrierSeconds}) {
    reg.get_histogram(name, duration_buckets());
  }
}

}  // namespace clasp::obs
