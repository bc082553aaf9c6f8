#include "clasp/report.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace clasp {

std::string render_campaign_report(clasp_platform& platform,
                                   const std::string& region,
                                   const report_options& options) {
  const obs::trace_span span(obs::phase::analysis);
  const auto data = platform.download_series("topology", region);
  if (data.series.empty()) {
    throw state_error("report: no topology campaign data for " + region);
  }

  std::ostringstream out;
  out << "CLASP campaign report — " << region << "\n";
  out << std::string(60, '=') << "\n\n";

  // Window and fleet.
  const ts_series* first = data.series.front();
  out << "window: " << first->points().front().at.to_string() << " .. "
      << first->points().back().at.to_string() << "\n";
  out << "servers measured: " << data.series.size() << "\n";

  const auto& selection = platform.select_topology(region);
  out << "interdomain links: " << selection.pilot.links.size()
      << " discovered, " << selection.links_traversed_by_servers
      << " traversed by U.S. servers, coverage "
      << format_double(100.0 * selection.coverage(), 1) << "%\n";

  const cost_report& costs = platform.cloud().costs();
  out << "spend to date: $" << format_double(costs.total(), 2) << " (VMs $"
      << format_double(costs.vm_usd, 2) << ", egress $"
      << format_double(costs.egress_usd, 2) << ", storage $"
      << format_double(costs.storage_usd, 2) << ")\n";

  // Campaign health (only under fault injection; a fault-free campaign
  // is 100% complete by construction).
  for (const auto& runner : platform.campaigns()) {
    if (runner->config().label != "topology" ||
        runner->config().region != region || !runner->faults().enabled()) {
      continue;
    }
    const campaign_health health = runner->health();
    out << "campaign health: "
        << format_double(100.0 * health.mean_completeness(), 1)
        << "% mean completeness, " << health.total_retries << " retries, "
        << health.failed_tests << " failed tests, "
        << health.withdrawn_servers << " servers withdrawn, "
        << health.vm_redeploys << " VM redeploys ("
        << health.vm_downtime_hours << " downtime hours), "
        << health.upload_failures << " uploads lost\n";
    const auto excluded = health.low_completeness_servers(0.8);
    if (!excluded.empty()) {
      out << "excluded (<80% complete):";
      for (const std::size_t sid : excluded) {
        out << " " << platform.registry().server(sid).name;
      }
      out << "\n";
    }
    break;
  }
  out << "\n";

  // Congestion ranking.
  struct row {
    std::string name;
    server_congestion_summary summary;
    weekday_weekend_split split;
    asymmetry_summary asym;
    std::string diurnal;
  };
  std::vector<row> rows;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    row r;
    r.name = platform.registry().server(data.server_ids[i]).name;
    r.summary =
        summarize_server(*data.series[i], data.tz[i], options.threshold);
    r.split =
        split_by_day_type(*data.series[i], data.tz[i], options.threshold);
    // Diurnal congestion-probability sparkline, local midnight..23h.
    const auto prob = hourly_congestion_probability(*data.series[i],
                                                    data.tz[i],
                                                    options.threshold);
    r.diurnal = sparkline({prob.begin(), prob.end()});
    const ts_series* dl =
        platform.store().find("download_loss", data.series[i]->tags());
    const ts_series* ul =
        platform.store().find("upload_loss", data.series[i]->tags());
    if (dl != nullptr && ul != nullptr) {
      r.asym = classify_asymmetry(*data.series[i], *dl, *ul, data.tz[i],
                                  options.threshold);
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(), [](const row& a, const row& b) {
    return a.summary.congested_hours > b.summary.congested_hours;
  });

  std::size_t congested_servers = 0;
  for (const row& r : rows) {
    congested_servers += r.summary.congested_server ? 1 : 0;
  }
  out << "congested servers (>10% of days with events): "
      << congested_servers << "/" << rows.size() << "\n\n";

  text_table table({"network", "cong.days", "cong.hours", "wd%", "we%",
                    "direction", "diurnal (00-23h)"});
  for (std::size_t i = 0;
       i < std::min<std::size_t>(rows.size(), options.top_servers); ++i) {
    const row& r = rows[i];
    table.add_row(
        {r.name,
         std::to_string(r.summary.congested_days) + "/" +
             std::to_string(r.summary.days_measured),
         std::to_string(r.summary.congested_hours) + "/" +
             std::to_string(r.summary.hours_measured),
         format_double(100.0 * r.split.weekday_fraction(), 1),
         format_double(100.0 * r.split.weekend_fraction(), 1),
         to_string(r.asym.dominant()), r.diurnal});
  }
  out << table.render() << "\n";

  // Interconnect view.
  auto links = platform.interconnect_congestion(region, options.threshold);
  std::sort(links.begin(), links.end(),
            [](const interconnect_report& a, const interconnect_report& b) {
              return a.summary.congested_hours > b.summary.congested_hours;
            });
  out << "most congested interconnects:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(links.size(), 5); ++i) {
    out << "  " << links[i].far_side.to_string() << "  AS"
        << links[i].neighbor.value << "  "
        << links[i].summary.congested_hours << "/"
        << links[i].summary.hours_measured << " hours\n";
  }
  return out.str();
}

}  // namespace clasp
