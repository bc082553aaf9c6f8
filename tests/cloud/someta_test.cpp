#include "cloud/someta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace clasp {
namespace {

TEST(SometaTest, GigabitTestFitsOnNStandard2) {
  // The paper's claim: n1-standard-2 handles a 1 Gbps test without
  // depleting the CPU.
  const machine_type& n1 = machine_type_by_name("n1-standard-2");
  rng r(1);
  someta_recorder recorder(n1);
  for (int i = 0; i < 500; ++i) {
    recorder.record(mbps{950.0}, r);
  }
  EXPECT_DOUBLE_EQ(recorder.saturation_fraction(), 0.0);
  EXPECT_LT(recorder.peak_cpu(), 0.6);
}

TEST(SometaTest, CpuScalesWithThroughput) {
  const machine_type& n1 = machine_type_by_name("n1-standard-2");
  rng r1(2), r2(2);
  const double slow = test_cpu_utilization(n1, mbps{50.0}, r1);
  const double fast = test_cpu_utilization(n1, mbps{950.0}, r2);
  EXPECT_GT(fast, slow);
}

TEST(SometaTest, SampleFieldsPlausible) {
  const machine_type& n1 = machine_type_by_name("n1-standard-2");
  rng r(3);
  for (int i = 0; i < 200; ++i) {
    const double cpu = test_cpu_utilization(n1, mbps{r.uniform(10, 1000)}, r);
    EXPECT_GT(cpu, 0.0);
    EXPECT_LE(cpu, 1.0);
  }
}

TEST(SometaTest, SingleCoreMachineWouldSaturate) {
  // A hypothetical 1-vCPU machine at 10 Gbps clearly saturates — the
  // degradation the paper's VM sizing avoided.
  machine_type tiny{"tiny-1", 1, 1.0, mbps::from_gbps(10.0), 0.01};
  rng r(4);
  someta_recorder recorder(tiny);
  for (int i = 0; i < 100; ++i) {
    recorder.record(mbps{9500.0}, r);
  }
  EXPECT_GT(recorder.saturation_fraction(), 0.9);
}

TEST(SometaTest, RecorderAccumulates) {
  someta_recorder recorder(machine_type_by_name("n2-standard-2"));
  rng r(5);
  EXPECT_DOUBLE_EQ(recorder.saturation_fraction(), 0.0);  // empty
  const double first = recorder.record(mbps{100.0}, r);
  const double second = recorder.record(mbps{200.0}, r);
  EXPECT_EQ(recorder.summary().tests, 2u);
  EXPECT_EQ(recorder.summary().saturated, 0u);
  EXPECT_EQ(recorder.peak_cpu(), std::max(first, second));
}

// The list-based recorder the summary replaced: every sample kept, both
// queries folded over the list.
struct sample_list {
  std::vector<double> cpu;
  double saturation_fraction() const {
    if (cpu.empty()) return 0.0;
    std::size_t saturated = 0;
    for (const double c : cpu) {
      if (c >= 0.95) ++saturated;
    }
    return static_cast<double>(saturated) / static_cast<double>(cpu.size());
  }
  double peak_cpu() const {
    double peak = 0.0;
    for (const double c : cpu) peak = std::max(peak, c);
    return peak;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(SometaTest, SummaryMatchesTheSampleList) {
  // Random sample sequences, recorded one at a time and staged in
  // hour-sized batches as commit folds them, against the list-based
  // queries on the same utilizations.
  rng inputs(11);
  for (int seq = 0; seq < 200; ++seq) {
    const std::size_t n = static_cast<std::size_t>(inputs.uniform_int(0, 300));
    const machine_type& machine = inputs.pick(gcp_machine_types());
    someta_recorder one_by_one(machine);
    someta_recorder batched(machine);
    sample_list list;
    rng r(static_cast<std::uint64_t>(seq));
    std::size_t hour_tests = 0;
    std::size_t hour_saturated = 0;
    double hour_peak = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly the paper's range, sometimes far past what the VM holds.
      const double mbps_in = inputs.bernoulli(0.8)
                                 ? inputs.uniform(0.0, 1000.0)
                                 : inputs.uniform(1000.0, 20000.0);
      rng staged = r;
      const double cpu = one_by_one.record(mbps{mbps_in}, r);
      const double again = test_cpu_utilization(machine, mbps{mbps_in}, staged);
      ASSERT_TRUE(same_bits(cpu, again));
      list.cpu.push_back(cpu);
      ++hour_tests;
      if (cpu_saturated(cpu)) ++hour_saturated;
      hour_peak = std::max(hour_peak, cpu);
      if (inputs.bernoulli(0.1) || i + 1 == n) {
        batched.absorb(hour_tests, hour_saturated, hour_peak);
        hour_tests = 0;
        hour_saturated = 0;
        hour_peak = 0.0;
      }
    }
    for (const someta_recorder* rec : {&one_by_one, &batched}) {
      EXPECT_EQ(rec->summary().tests, n);
      EXPECT_TRUE(same_bits(rec->saturation_fraction(),
                            list.saturation_fraction()))
          << "sequence " << seq;
      EXPECT_TRUE(same_bits(rec->peak_cpu(), list.peak_cpu()))
          << "sequence " << seq;
    }
  }
}

}  // namespace
}  // namespace clasp
