// Fig. 6: congestion probability of ingress paths by local time of day
// for the ten most-congested servers in us-east1 (6a) and us-west1 (6b),
// and the premium-vs-standard comparison in europe-west1 (6c).
//
// Paper: probabilities mostly <0.1; Smarterbroadband degraded through the
// day; Cogent-hosted servers peak 7-11 pm; Cox shows daytime reverse-path
// congestion; three standard-tier networks (Vortex, Joister, Telstra)
// congest more than their premium counterparts.
#include "bench_support.hpp"
#include "util/strings.hpp"

#include <algorithm>

namespace {

using namespace clasp;

struct ranked_server {
  const ts_series* series;
  timezone_offset tz;
  std::string label;
  std::size_t events;
};

std::vector<ranked_server> top_congested(const clasp_platform& platform,
                                         const std::string& campaign,
                                         const std::string& region,
                                         const std::string& tier,
                                         std::size_t top_n) {
  const auto data =
      platform.download_series(campaign, region, "download_mbps", tier);
  std::vector<ranked_server> ranked;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    const auto summary = summarize_server(*data.series[i], data.tz[i], 0.5);
    const std::size_t sid = data.server_ids[i];
    ranked.push_back({data.series[i], data.tz[i],
                      platform.registry().server(sid).name,
                      summary.congested_hours});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ranked_server& a, const ranked_server& b) {
              return a.events > b.events;
            });
  if (ranked.size() > top_n) ranked.resize(top_n);
  return ranked;
}

void print_probabilities(const std::vector<ranked_server>& servers) {
  std::printf("# columns: local_hour");
  for (const ranked_server& s : servers) std::printf(" | %s", s.label.c_str());
  std::printf("\n");
  std::vector<std::array<double, 24>> probs;
  for (const ranked_server& s : servers) {
    probs.push_back(hourly_congestion_probability(*s.series, s.tz, 0.5));
  }
  for (unsigned h = 0; h < 24; ++h) {
    std::printf("%02u", h);
    for (const auto& p : probs) std::printf(" %.3f", p[h]);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace clasp;
  using namespace clasp::bench;

  clasp_platform platform = make_platform();
  run_topology_campaigns(platform, {"us-east1", "us-west1"});
  run_differential_campaign(platform, "europe-west1");

  print_header("Fig. 6 — Hourly congestion probability (top-10 servers)",
               "probability mostly <0.1; evening peaks for eyeballs/Cogent; "
               "Cox daytime; standard tier worse for Vortex/Joister/Telstra");

  std::printf("\n--- Fig 6a: us-east1 ---\n");
  print_probabilities(top_congested(platform, "topology", "us-east1", "", 10));

  std::printf("\n--- Fig 6b: us-west1 ---\n");
  const auto west = top_congested(platform, "topology", "us-west1", "", 10);
  print_probabilities(west);

  // Cox daytime + reverse-path check (§4.2: "low (<1%%) packet loss rate
  // in the upload throughput tests, indicating that congestion took place
  // on the reverse path (from ISP to cloud)").
  for (const ranked_server& s : west) {
    if (s.label.find("Cox") == std::string::npos) continue;
    const auto prob = hourly_congestion_probability(*s.series, s.tz, 0.5);
    double daytime = 0.0, evening = 0.0;
    for (unsigned h = 9; h <= 16; ++h) daytime += prob[h];
    for (unsigned h = 19; h <= 23; ++h) evening += prob[h];
    std::printf("\nCox daytime-vs-evening probability mass: %.3f vs %.3f "
                "(paper: daytime congestion on the reverse path)\n",
                daytime / 8.0, evening / 5.0);
    tag_set tags = s.series->tags();
    const ts_series* dl = platform.store().find("download_loss", tags);
    const ts_series* ul = platform.store().find("upload_loss", tags);
    if (dl != nullptr && ul != nullptr) {
      const asymmetry_summary asym =
          classify_asymmetry(*s.series, *dl, *ul, s.tz, 0.5);
      std::printf("Cox congestion direction: %zu ingress / %zu egress / "
                  "%zu both / %zu unknown hours -> %s (paper: reverse "
                  "path, ISP->cloud)\n",
                  asym.ingress_hours, asym.egress_hours, asym.both_hours,
                  asym.unknown_hours, to_string(asym.dominant()));
    }
  }

  std::printf("\n--- Fig 6c: europe-west1 premium (p) vs standard (s) ---\n");
  const auto prem =
      top_congested(platform, "diff-premium", "europe-west1", "premium", 6);
  for (const ranked_server& s : prem) {
    // Pair with the standard-tier series of the same server.
    tag_set tags = s.series->tags();
    tags["campaign"] = "diff-standard";
    tags["tier"] = "standard";
    const ts_series* stnd = platform.store().find("download_mbps", tags);
    if (stnd == nullptr) continue;
    const auto pp = hourly_congestion_probability(*s.series, s.tz, 0.5);
    const auto sp = hourly_congestion_probability(*stnd, s.tz, 0.5);
    double p_mass = 0.0, s_mass = 0.0;
    for (unsigned h = 0; h < 24; ++h) {
      p_mass += pp[h];
      s_mass += sp[h];
    }
    std::printf("%-48s premium=%.3f standard=%.3f %s\n", s.label.c_str(),
                p_mass / 24.0, s_mass / 24.0,
                s_mass > p_mass ? "<- standard more congested" : "");
  }
  return 0;
}
