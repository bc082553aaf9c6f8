#include "cloud/someta.hpp"

#include <algorithm>

namespace clasp {

namespace {

// max(0, r.normal(0, sigma)), drawing exactly what that call draws. The
// Box-Muller value's sign is cos(2 pi u2)'s, which is certainly negative
// (below -6e-4) for u2 in (0.2501, 0.7499); the radius sqrt(-2 log u1)
// is positive for u1 < 1. So there the result is +0.0 without log, sqrt
// or cos, and elsewhere it is the full expression.
double half_normal(rng& r, double sigma) {
  const double u1 = r.uniform_positive();
  const double u2 = r.uniform();
  if (u2 > 0.2501 && u2 < 0.7499) return 0.0;
  return std::max(0.0, 0.0 + sigma * rng::box_muller(u1, u2));
}

}  // namespace

vm_metadata_sample record_test_metadata(const machine_type& machine,
                                        mbps observed_throughput,
                                        hour_stamp at, rng& r) {
  vm_metadata_sample sample;
  sample.at = at;

  // Cost model: a headless-Chromium speed test burns ~0.35 of one core at
  // 1 Gbps for TLS + rendering, plus a fixed ~0.12 core baseline for the
  // browser, tcpdump and someta. Normalized by vCPU count.
  const double cores = static_cast<double>(machine.vcpus);
  const double throughput_cores =
      0.35 * observed_throughput.value / 1000.0;
  const double baseline_cores = 0.12;
  const double jitter = half_normal(r, 0.03);
  sample.cpu_utilization = std::min(
      (throughput_cores + baseline_cores) / cores + jitter, 1.0);
  sample.cpu_saturated = sample.cpu_utilization >= 0.95;

  // Memory: Chromium plus capture buffers; well under the 7.5 GB of an
  // n1-standard-2.
  sample.memory_gb = 1.4 + 0.2 * observed_throughput.value / 1000.0 +
                     half_normal(r, 0.05);
  // iowait: compressing and uploading artifacts.
  sample.io_wait = std::clamp(0.01 + r.normal(0.0, 0.004), 0.0, 0.2);
  return sample;
}

const vm_metadata_sample& someta_recorder::record(mbps observed_throughput,
                                                  hour_stamp at, rng& r) {
  samples_.push_back(record_test_metadata(machine_, observed_throughput, at, r));
  return samples_.back();
}

void someta_recorder::absorb(std::vector<vm_metadata_sample>&& staged) {
  if (samples_.empty()) {
    samples_ = std::move(staged);
    return;
  }
  samples_.insert(samples_.end(), staged.begin(), staged.end());
}

double someta_recorder::saturation_fraction() const {
  if (samples_.empty()) return 0.0;
  std::size_t saturated = 0;
  for (const vm_metadata_sample& s : samples_) {
    if (s.cpu_saturated) ++saturated;
  }
  return static_cast<double>(saturated) /
         static_cast<double>(samples_.size());
}

double someta_recorder::peak_cpu() const {
  double peak = 0.0;
  for (const vm_metadata_sample& s : samples_) {
    peak = std::max(peak, s.cpu_utilization);
  }
  return peak;
}

}  // namespace clasp
