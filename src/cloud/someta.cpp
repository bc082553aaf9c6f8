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

// The two draws of one r.normal() call, without its log, sqrt and cos.
void skip_normal(rng& r) {
  r.uniform_positive();
  r.uniform();
}

}  // namespace

double test_cpu_utilization(const machine_type& machine,
                            mbps observed_throughput, rng& r) {
  // Cost model: a headless-Chromium speed test burns ~0.35 of one core at
  // 1 Gbps for TLS + rendering, plus a fixed ~0.12 core baseline for the
  // browser, tcpdump and someta. Normalized by vCPU count.
  const double cores = static_cast<double>(machine.vcpus);
  const double throughput_cores =
      0.35 * observed_throughput.value / 1000.0;
  const double baseline_cores = 0.12;
  const double jitter = half_normal(r, 0.03);
  // The model also drew the test's memory (a half-normal) and iowait (a
  // normal). Nothing reads either value, but the draws stay: the tests
  // after this one, in the same stream, must see the draws they always
  // saw.
  skip_normal(r);
  skip_normal(r);
  return std::min((throughput_cores + baseline_cores) / cores + jitter, 1.0);
}

double someta_recorder::record(mbps observed_throughput, rng& r) {
  const double cpu = test_cpu_utilization(machine_, observed_throughput, r);
  absorb(1, cpu_saturated(cpu) ? 1 : 0, cpu);
  return cpu;
}

double someta_recorder::saturation_fraction() const {
  if (summary_.tests == 0) return 0.0;
  return static_cast<double>(summary_.saturated) /
         static_cast<double>(summary_.tests);
}

}  // namespace clasp
