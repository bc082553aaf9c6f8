// Fig. 5: CDFs of the relative premium-vs-standard difference for
// download throughput (5a), upload throughput (5b) and latency (5c) in
// europe-west1, grouped by the pre-test latency class.
//
// Paper: standard tier generally faster for download (>=87% of reports in
// 8 servers); relative difference <50% in >92% of measurements; upload
// similar when premium latency comparable or lower; measured latency
// consistent with the pre-test classes; premium loss >10% on 8 targets.
#include "bench_support.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace clasp;

// Collect relative differences per metric for servers in a latency class.
std::vector<double> deltas_for(
    const clasp_platform& platform, const std::string& metric,
    const std::vector<std::size_t>& servers) {
  std::vector<double> out;
  for (const std::size_t sid : servers) {
    tag_set prem_tags = {{"campaign", "diff-premium"},
                         {"region", "europe-west1"},
                         {"tier", "premium"},
                         {"server", std::to_string(sid)}};
    const speed_server& server = platform.registry().server(sid);
    prem_tags["network"] = std::to_string(server.network.value);
    prem_tags["city"] = platform.net().geo->city(server.city).name;
    tag_set std_tags = prem_tags;
    std_tags["campaign"] = "diff-standard";
    std_tags["tier"] = "standard";
    const ts_series* prem = platform.store().find(metric, prem_tags);
    const ts_series* stnd = platform.store().find(metric, std_tags);
    if (prem == nullptr || stnd == nullptr) continue;
    const auto deltas = relative_differences(*prem, *stnd);
    out.insert(out.end(), deltas.begin(), deltas.end());
  }
  return out;
}

void print_cdf(const char* figure, const char* cls,
               const std::vector<double>& deltas) {
  if (deltas.empty()) return;
  std::printf("# cdf %s class=%s n=%zu\n", figure, cls, deltas.size());
  const auto cdf = empirical_cdf(deltas);
  // Thin to ~40 points for readability.
  const std::size_t step = std::max<std::size_t>(cdf.size() / 40, 1);
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf("%.4f %.4f\n", cdf[i].x, cdf[i].cumulative_fraction);
  }
  if ((cdf.size() - 1) % step != 0) {
    std::printf("%.4f %.4f\n", cdf.back().x, cdf.back().cumulative_fraction);
  }
}

}  // namespace

int main() {
  using namespace clasp;
  using namespace clasp::bench;

  clasp_platform platform = make_platform();
  run_differential_campaign(platform, "europe-west1");

  print_header("Fig. 5 — Premium vs standard tier (europe-west1)",
               "standard generally faster for download; |delta|<50%% in "
               ">92%% of measurements; premium loss >10%% on some targets");

  const auto& selection = platform.select_differential("europe-west1");
  std::vector<std::size_t> by_class[3];
  for (const auto& chosen : selection.selected) {
    by_class[static_cast<int>(chosen.cls)].push_back(chosen.server_id);
  }
  const char* class_names[3] = {"premium_lower", "comparable",
                                "standard_lower"};

  const char* metrics[3] = {"download_mbps", "upload_mbps", "latency_ms"};
  const char* figures[3] = {"fig5a_download", "fig5b_upload", "fig5c_latency"};

  std::vector<double> all_download_deltas;
  for (int m = 0; m < 3; ++m) {
    std::printf("\n");
    for (int c = 0; c < 3; ++c) {
      const auto deltas = deltas_for(platform, metrics[m], by_class[c]);
      print_cdf(figures[m], class_names[c], deltas);
      if (m == 0) {
        all_download_deltas.insert(all_download_deltas.end(), deltas.begin(),
                                   deltas.end());
      }
    }
  }

  // Headline statistics.
  std::size_t std_faster = 0, within_half = 0;
  for (const double d : all_download_deltas) {
    if (d < 0.0) ++std_faster;
    if (std::abs(d) < 0.5) ++within_half;
  }
  const double n = static_cast<double>(all_download_deltas.size());
  std::printf("\nheadline stats (download):\n");
  std::printf("  standard faster in %.1f%% of measurements (paper: generally"
              " faster; >=87%% on 8 servers)\n",
              100.0 * std_faster / n);
  std::printf("  |delta| < 50%% in %.1f%% of measurements (paper: >92%%)\n",
              100.0 * within_half / n);

  // Per-server standard-faster shares + premium loss (the 8 lossy targets).
  std::printf("\nper-server detail:\n");
  text_table table({"Server", "Class", "std faster %", "premium loss avg %"});
  for (const auto& chosen : selection.selected) {
    const std::vector<std::size_t> one{chosen.server_id};
    const auto deltas = deltas_for(platform, "download_mbps", one);
    if (deltas.empty()) continue;
    std::size_t faster = 0;
    for (const double d : deltas) faster += d < 0 ? 1 : 0;

    tag_set tags = {{"campaign", "diff-premium"},
                    {"region", "europe-west1"},
                    {"tier", "premium"},
                    {"server", std::to_string(chosen.server_id)}};
    const speed_server& server = platform.registry().server(chosen.server_id);
    tags["network"] = std::to_string(server.network.value);
    tags["city"] = platform.net().geo->city(server.city).name;
    const ts_series* loss = platform.store().find("download_loss", tags);
    double avg_loss = 0.0;
    if (loss != nullptr && loss->size() > 0) {
      for (const double v : loss->values()) avg_loss += v;
      avg_loss /= static_cast<double>(loss->size());
    }
    table.add_row({server.name, to_string(chosen.cls),
                   format_double(100.0 * faster / deltas.size(), 1),
                   format_double(100.0 * avg_loss, 2)});
  }
  table.print(std::cout);

  std::size_t lossy_targets = 0;
  // Count servers whose premium loss average exceeds 10%.
  for (const auto& chosen : selection.selected) {
    tag_set tags = {{"campaign", "diff-premium"},
                    {"region", "europe-west1"},
                    {"tier", "premium"},
                    {"server", std::to_string(chosen.server_id)}};
    const speed_server& server = platform.registry().server(chosen.server_id);
    tags["network"] = std::to_string(server.network.value);
    tags["city"] = platform.net().geo->city(server.city).name;
    const ts_series* loss = platform.store().find("download_loss", tags);
    if (loss == nullptr || loss->size() == 0) continue;
    double avg = 0.0;
    for (const double v : loss->values()) avg += v;
    if (avg / static_cast<double>(loss->size()) > 0.10) ++lossy_targets;
  }
  std::printf("\nservers with premium avg loss >10%%: %zu (paper: 8)\n",
              lossy_targets);
  return 0;
}
