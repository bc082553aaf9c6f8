// Oracle test for test_cpu_utilization: its half-normal skips log, sqrt
// and cos when the Box-Muller cosine is certainly negative, and it only
// draws the memory and iowait normals nothing reads. The full resource
// model below, every normal computed in full, is the reference; both
// must give the same CPU-utilization bits and leave the stream at the
// same next draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "cloud/someta.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

struct reference_sample {
  double cpu_utilization{0.0};
  double memory_gb{0.0};
  double io_wait{0.0};
};

reference_sample reference_test_metadata(const machine_type& machine,
                                         mbps observed_throughput, rng& r) {
  reference_sample sample;
  const double cores = static_cast<double>(machine.vcpus);
  const double throughput_cores =
      0.35 * observed_throughput.value / 1000.0;
  const double baseline_cores = 0.12;
  const double jitter = std::max(0.0, r.normal(0.0, 0.03));
  sample.cpu_utilization = std::min(
      (throughput_cores + baseline_cores) / cores + jitter, 1.0);
  sample.memory_gb = 1.4 + 0.2 * observed_throughput.value / 1000.0 +
                     std::max(0.0, r.normal(0.0, 0.05));
  sample.io_wait = std::clamp(0.01 + r.normal(0.0, 0.004), 0.0, 0.2);
  return sample;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Runs both kernels from copies of `state`; true when the utilization,
// its saturation flag and the next draw agree.
bool matches(const machine_type& machine, double throughput,
             const rng& state) {
  rng ref = state;
  rng got = state;
  const reference_sample want =
      reference_test_metadata(machine, mbps{throughput}, ref);
  const double have = test_cpu_utilization(machine, mbps{throughput}, got);
  return same_bits(want.cpu_utilization, have) &&
         (want.cpu_utilization >= 0.95) == cpu_saturated(have) &&
         ref() == got();
}

TEST(SometaOracle, RandomSamplesMatchTheFullNormalKernel) {
  rng inputs(99);
  rng state(5);
  std::size_t mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    const machine_type& machine = inputs.pick(gcp_machine_types());
    const double throughput = inputs.bernoulli(0.95)
                                  ? inputs.uniform(0.0, 2000.0)
                                  : inputs.uniform(0.0, 1e6);
    if (!matches(machine, throughput, state)) ++mismatches;
    state();  // the next call starts one draw further on
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(SometaOracle, CosineSignEdgesMatch) {
  // Stream positions whose u2 (the second draw of either half-normal)
  // lands within 1e-3 of 0.25 or 0.75, where the cosine's sign flips and
  // the pruned interval (0.2501, 0.7499) begins and ends.
  const machine_type& n1 = machine_type_by_name("n1-standard-2");
  rng state(17);
  std::size_t near_quarter = 0;
  std::size_t near_three_quarters = 0;
  std::size_t mismatches = 0;
  for (int pos = 0; pos < 2000000 &&
                    (near_quarter < 300 || near_three_quarters < 300);
       ++pos) {
    rng peek = state;
    bool near_edge = false;
    for (int half = 0; half < 2; ++half) {
      peek.uniform_positive();
      const double u2 = peek.uniform();
      if (std::abs(u2 - 0.25) < 1e-3) {
        ++near_quarter;
        near_edge = true;
      } else if (std::abs(u2 - 0.75) < 1e-3) {
        ++near_three_quarters;
        near_edge = true;
      }
    }
    if (near_edge) {
      for (const double throughput : {0.0, 40.0, 950.0, 5000.0}) {
        if (!matches(n1, throughput, state)) ++mismatches;
      }
    }
    state();
  }
  EXPECT_GE(near_quarter, 300u);
  EXPECT_GE(near_three_quarters, 300u);
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace clasp
