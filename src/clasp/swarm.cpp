#include "clasp/swarm.hpp"

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace clasp {

const char* to_string(vantage_swarm::refusal r) {
  switch (r) {
    case vantage_swarm::refusal::none: return "none";
    case vantage_swarm::refusal::offline: return "offline";
    case vantage_swarm::refusal::out_of_credits: return "out_of_credits";
    case vantage_swarm::refusal::rate_limited: return "rate_limited";
  }
  return "?";
}

swarm_config swarm_config::preset(std::string_view level) {
  swarm_config cfg;
  if (level == "off") return cfg;
  if (level == "low") {
    // Background community churn: ~86% of probes online at any hour
    // (join/(join+leave)), budgets roomy enough that a single-probe tuple
    // can still cover every round of the 18-day pre-test window.
    cfg.enabled = true;
    cfg.join_rate = 0.12;
    cfg.leave_rate = 0.02;
    cfg.credits_per_probe = 400;
    cfg.rate_limit_per_hour = 6;
    cfg.coverage_target = 0.9;
    cfg.max_substitutes = 3;
    cfg.retry_backoff_hours = 1;
    return cfg;
  }
  if (level == "high") {
    // Adversarial churn: only ~one third of probes online, tight credit
    // budgets that starve sole-member tuples mid-window, sharp rate caps.
    cfg.enabled = true;
    cfg.join_rate = 0.05;
    cfg.leave_rate = 0.10;
    cfg.credits_per_probe = 150;
    cfg.rate_limit_per_hour = 2;
    cfg.coverage_target = 0.75;
    cfg.max_substitutes = 2;
    cfg.retry_backoff_hours = 1;
    return cfg;
  }
  throw invalid_argument_error("swarm_config: unknown preset '" +
                               std::string(level) + "' (off|low|high)");
}

vantage_swarm::vantage_swarm(const route_planner* planner,
                             const network_view* view, swarm_config config,
                             speedchecker_config platform,
                             std::uint64_t stream_seed)
    : config_(config),
      platform_(planner, view, platform),
      churn_seed_(stream_seed ^ config.seed) {
  if (config_.join_rate < 0.0 || config_.join_rate > 1.0 ||
      config_.leave_rate < 0.0 || config_.leave_rate > 1.0) {
    throw invalid_argument_error("vantage_swarm: rates must be in [0, 1]");
  }
  if (config_.coverage_target < 0.0 || config_.coverage_target > 1.0) {
    throw invalid_argument_error(
        "vantage_swarm: coverage_target must be in [0, 1]");
  }
}

const std::vector<host_index>& vantage_swarm::probes() const {
  return platform_.vantage_points();
}

void vantage_swarm::plan(hour_range window) {
  if (!config_.enabled) {
    planned_ = true;
    return;
  }
  if (planned_ && churn_.enabled() && churn_.window().begin_at == window.begin_at &&
      churn_.window().end_at == window.end_at) {
    return;
  }
  churn_ = churn_plan::build(churn_seed_, "swarm", probes().size(), window,
                             config_.join_rate, config_.leave_rate);
  planned_ = true;
  if (obs::enabled()) {
    obs::metrics_registry::instance()
        .get_gauge(obs::family::kSwarmProbes)
        .set(static_cast<double>(probes().size()));
  }
}

bool vantage_swarm::online(std::size_t probe_index, hour_stamp at) const {
  if (!config_.enabled || !churn_.enabled()) return true;
  return churn_.online(probe_index, at);
}

std::size_t vantage_swarm::active_probes(hour_stamp at) const {
  if (!config_.enabled || !churn_.enabled()) return probes().size();
  return churn_.online_count(at);
}

std::size_t vantage_swarm::credits_remaining(std::size_t probe_index,
                                             hour_stamp at) const {
  if (config_.credits_per_probe == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  const auto it = credits_used_.find(speedchecker_service::month_key(at));
  const std::size_t used =
      it == credits_used_.end() ? 0 : it->second.at(probe_index);
  return used >= config_.credits_per_probe
             ? 0
             : config_.credits_per_probe - used;
}

std::optional<vp_probe_result> vantage_swarm::try_probe(
    std::size_t probe_index, const endpoint& target, service_tier tier,
    hour_stamp at, rng& r, refusal* why) {
  if (probe_index >= probes().size()) {
    throw invalid_argument_error("vantage_swarm: probe index out of range");
  }
  const auto refuse = [&](refusal reason) -> std::optional<vp_probe_result> {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  if (why != nullptr) *why = refusal::none;
  if (!online(probe_index, at)) return refuse(refusal::offline);

  if (config_.rate_limit_per_hour > 0) {
    const std::int64_t hour = at.hours_since_epoch();
    if (hour != rate_hour_) {
      rate_hour_ = hour;
      rate_used_.assign(probes().size(), 0);
    }
    if (rate_used_[probe_index] >= config_.rate_limit_per_hour) {
      ++rate_limited_;
      if (obs::enabled()) {
        obs::metrics_registry::instance()
            .get_counter(obs::family::kSwarmRateLimited)
            .add(1);
      }
      return refuse(refusal::rate_limited);
    }
  }

  std::uint32_t* credit_slot = nullptr;
  if (config_.credits_per_probe > 0) {
    auto& month = credits_used_[speedchecker_service::month_key(at)];
    if (month.empty()) month.assign(probes().size(), 0);
    credit_slot = &month[probe_index];
    if (*credit_slot >= config_.credits_per_probe) {
      return refuse(refusal::out_of_credits);
    }
  }

  // Account-level faults (monthly quota, retirement) throw through to the
  // caller — only a served probe consumes swarm-side budget or RNG draws.
  vp_probe_result result =
      platform_.probe(probes()[probe_index], target, tier, at, r);
  if (config_.rate_limit_per_hour > 0) ++rate_used_[probe_index];
  if (credit_slot != nullptr) ++*credit_slot;
  ++credits_spent_;
  if (obs::enabled()) {
    obs::metrics_registry::instance()
        .get_counter(obs::family::kSwarmCreditsSpent)
        .add(1);
  }
  return result;
}

void vantage_swarm::note_substitution() {
  if (!obs::enabled()) return;
  obs::metrics_registry::instance()
      .get_counter(obs::family::kSwarmSubstitutions)
      .add(1);
}

void vantage_swarm::note_missed_round() {
  if (!obs::enabled()) return;
  obs::metrics_registry::instance()
      .get_counter(obs::family::kSwarmMissedRounds)
      .add(1);
}

void vantage_swarm::publish_round(hour_stamp at, double mean_coverage,
                                  std::size_t stale_tuples) const {
  if (!obs::enabled()) return;
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  reg.get_gauge(obs::family::kSwarmActiveProbes)
      .set(static_cast<double>(active_probes(at)));
  reg.get_gauge(obs::family::kSwarmCoverageRatio).set(mean_coverage);
  reg.get_gauge(obs::family::kSwarmStaleTuples)
      .set(static_cast<double>(stale_tuples));
}

void vantage_swarm::save_state(binary_writer& out) const {
  platform_.save_state(out);
  out.varint(credits_spent_);
  out.varint(credits_used_.size());
  for (const auto& [month, used] : credits_used_) {
    out.svarint(month);
    out.varint(used.size());
    for (const std::uint32_t u : used) out.varint(u);
  }
}

void vantage_swarm::load_state(binary_reader& in) {
  platform_.load_state(in);
  credits_spent_ = static_cast<std::size_t>(in.varint());
  credits_used_.clear();
  const std::size_t months = static_cast<std::size_t>(in.varint());
  for (std::size_t i = 0; i < months; ++i) {
    const int month = static_cast<int>(in.svarint());
    // One varint per probe, so a corrupt count is refused before it
    // sizes anything.
    std::vector<std::uint32_t> used(in.count(1));
    for (std::uint32_t& u : used) u = static_cast<std::uint32_t>(in.varint());
    if (used.size() != probes().size()) {
      throw state_error("vantage_swarm: probe count mismatch in ledger");
    }
    credits_used_[month] = std::move(used);
  }
}

void vantage_swarm::skip_state(binary_reader& in) {
  // Mirror of save_state's wire layout, values discarded.
  const std::size_t account_months = static_cast<std::size_t>(in.varint());
  for (std::size_t i = 0; i < account_months; ++i) {
    in.svarint();
    in.varint();
  }
  in.varint();  // credits_spent
  const std::size_t months = static_cast<std::size_t>(in.varint());
  for (std::size_t i = 0; i < months; ++i) {
    in.svarint();
    const std::size_t probes = static_cast<std::size_t>(in.varint());
    for (std::size_t p = 0; p < probes; ++p) in.varint();
  }
}

}  // namespace clasp
