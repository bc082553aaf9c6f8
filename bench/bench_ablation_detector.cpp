// Ablation (beyond the paper): validating the V_H congestion detector
// against the substrate's planted ground truth, which the real
// measurement could never observe.
//
//  * precision/recall of the paper's detector as H sweeps 0.1..0.9,
//  * the same for the autocorrelation-gated detector the paper proposes
//    as future work (§5).
#include "bench_support.hpp"
#include "clasp/hmm.hpp"
#include "util/strings.hpp"

namespace {

using namespace clasp;

struct totals {
  std::size_t tp{0}, fp{0}, fn{0}, tn{0};

  void add(const detector_validation& v) {
    tp += v.true_positive;
    fp += v.false_positive;
    fn += v.false_negative;
    tn += v.true_negative;
  }
  double precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
};

}  // namespace

int main() {
  using namespace clasp;
  using namespace clasp::bench;

  clasp_platform platform = make_platform();
  run_topology_campaigns(platform, {"us-east1", "us-west1"});

  print_header("Ablation — detector validation against planted episodes",
               "not in the paper: ground truth is only available in the "
               "simulator");

  const char* regions[] = {"us-east1", "us-west1"};

  std::printf("\n# V_H detector: H precision recall flagged_fraction\n");
  for (double h = 0.1; h <= 0.91; h += 0.1) {
    totals t;
    std::size_t flagged = 0, hours = 0;
    for (const char* region : regions) {
      const auto data = platform.download_series("topology", region);
      for (std::size_t i = 0; i < data.series.size(); ++i) {
        tag_set tags = data.series[i]->tags();
        const ts_series* gt = platform.store().find("gt_episode", tags);
        if (gt == nullptr) continue;
        t.add(validate_detector(*data.series[i], *gt, data.tz[i], h));
        for (const hour_label& l :
             intraday_labels(*data.series[i], data.tz[i], h)) {
          ++hours;
          flagged += l.congested ? 1 : 0;
        }
      }
    }
    std::printf("%.1f %.3f %.3f %.4f\n", h, t.precision(), t.recall(),
                static_cast<double>(flagged) / static_cast<double>(hours));
  }

  std::printf("\n# ACF-gated detector (future work, §5): "
              "acf_gate precision recall\n");
  for (double gate = 0.0; gate <= 0.51; gate += 0.125) {
    totals t;
    for (const char* region : regions) {
      const auto data = platform.download_series("topology", region);
      for (std::size_t i = 0; i < data.series.size(); ++i) {
        tag_set tags = data.series[i]->tags();
        const ts_series* gt = platform.store().find("gt_episode", tags);
        if (gt == nullptr) continue;
        // Evaluate the ACF detector's labels against ground truth.
        std::unordered_map<std::int64_t, bool> truth;
        for (const ts_point p : gt->points()) {
          truth[p.at.hours_since_epoch()] = p.value > 0.5;
        }
        detector_validation v;
        for (const hour_label& l :
             acf_detector_labels(*data.series[i], data.tz[i], gate, 0.5)) {
          const auto it = truth.find(l.at.hours_since_epoch());
          if (it == truth.end()) continue;
          if (l.congested && it->second) ++v.true_positive;
          else if (l.congested && !it->second) ++v.false_positive;
          else if (!l.congested && it->second) ++v.false_negative;
          else ++v.true_negative;
        }
        t.add(v);
      }
    }
    std::printf("%.3f %.3f %.3f\n", gate, t.precision(), t.recall());
  }

  std::printf("\n# latency-inflation detector (the RIPE-Atlas-style "
              "alternative §2 warns about): threshold precision recall\n");
  for (double thr = 0.25; thr <= 2.01; thr *= 2.0) {
    totals t;
    for (const char* region : regions) {
      const auto lat = platform.download_series("topology", region,
                                                "latency_ms");
      for (std::size_t i = 0; i < lat.series.size(); ++i) {
        tag_set tags = lat.series[i]->tags();
        const ts_series* gt = platform.store().find("gt_episode", tags);
        if (gt == nullptr) continue;
        std::unordered_map<std::int64_t, bool> truth;
        for (const ts_point p : gt->points()) {
          truth[p.at.hours_since_epoch()] = p.value > 0.5;
        }
        detector_validation v;
        for (const hour_label& l :
             latency_inflation_labels(*lat.series[i], lat.tz[i], thr)) {
          const auto it = truth.find(l.at.hours_since_epoch());
          if (it == truth.end()) continue;
          if (l.congested && it->second) ++v.true_positive;
          else if (l.congested && !it->second) ++v.false_positive;
          else if (!l.congested && it->second) ++v.false_negative;
          else ++v.true_negative;
        }
        t.add(v);
      }
    }
    std::printf("%.2f %.3f %.3f\n", thr, t.precision(), t.recall());
  }

  std::printf("\n# HMM detector (future work, §5): two-state Gaussian HMM "
              "per series\n");
  {
    totals t;
    std::size_t usable = 0, series_count = 0;
    for (const char* region : regions) {
      const auto data = platform.download_series("topology", region);
      for (std::size_t i = 0; i < data.series.size(); ++i) {
        ++series_count;
        tag_set tags = data.series[i]->tags();
        const ts_series* gt = platform.store().find("gt_episode", tags);
        if (gt == nullptr) continue;
        const hmm_detection det = hmm_detector(*data.series[i], data.tz[i]);
        if (det.usable) ++usable;
        std::unordered_map<std::int64_t, bool> truth;
        for (const ts_point p : gt->points()) {
          truth[p.at.hours_since_epoch()] = p.value > 0.5;
        }
        detector_validation v;
        const ts_point_view points = data.series[i]->points();
        for (std::size_t k = 0;
             k < points.size() && k < det.congested.size(); ++k) {
          const auto it = truth.find(points[k].at.hours_since_epoch());
          if (it == truth.end()) continue;
          if (det.congested[k] && it->second) ++v.true_positive;
          else if (det.congested[k] && !it->second) ++v.false_positive;
          else if (!det.congested[k] && it->second) ++v.false_negative;
          else ++v.true_negative;
        }
        t.add(v);
      }
    }
    std::printf("usable fits: %zu/%zu  precision %.3f  recall %.3f\n",
                usable, series_count, t.precision(), t.recall());
  }

  std::printf("\ninterpretation: the paper's H=0.5 sits near the precision/"
              "recall knee; the ACF gate trades recall for precision on "
              "noisy-but-uncongested series; the HMM adds temporal "
              "persistence and per-series adaptation.\n");
  return 0;
}
