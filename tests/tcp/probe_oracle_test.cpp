// Oracle test for run_latency_probe: it ranks probes by their draws and
// takes logarithms only for the few that can be the minimum. The plain
// kernel below, one log per draw and the minimum over every probe, is
// the reference; both must return the same double and leave the stream
// at the same next draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "tcp/model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

millis reference_latency_probe(const path_metrics& path, unsigned probes,
                               rng& noise) {
  double best = 1e18;
  for (unsigned i = 0; i < probes; ++i) {
    const double think_ms = 0.3 + noise.exponential(2.0);  // server overhead
    const double jitter_ms = noise.exponential(1.0);       // queue jitter
    best = std::min(best, path.rtt.value + think_ms + jitter_ms);
  }
  return millis{best};
}

path_metrics path_with_rtt(double rtt_ms) {
  path_metrics m;
  m.rtt = millis{rtt_ms};
  m.base_rtt = millis{rtt_ms};
  return m;
}

// Runs both kernels from the same stream state; counts the calls whose
// result bits or next draw differ.
class probe_oracle {
 public:
  explicit probe_oracle(std::uint64_t seed) : ref_(seed), got_(seed) {}

  void check(double rtt_ms, unsigned probes) {
    const path_metrics m = path_with_rtt(rtt_ms);
    const millis want = reference_latency_probe(m, probes, ref_);
    const millis got = run_latency_probe(m, probes, got_);
    ++calls_;
    if (std::bit_cast<std::uint64_t>(want.value) !=
        std::bit_cast<std::uint64_t>(got.value)) {
      ADD_FAILURE() << "rtt " << rtt_ms << " probes " << probes << ": want "
                    << want.value << " got " << got.value;
      ++mismatches_;
    }
    if (ref_() != got_()) {
      ADD_FAILURE() << "rtt " << rtt_ms << " probes " << probes
                    << ": next draw differs";
      ++mismatches_;
    }
  }
  std::size_t calls() const { return calls_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  rng ref_;
  rng got_;
  std::size_t calls_{0};
  std::size_t mismatches_{0};
};

TEST(LatencyProbeOracle, RandomPathsMatchTheOneLogPerDrawKernel) {
  rng inputs(2024);
  probe_oracle oracle(7);
  for (int i = 0; i < 100000; ++i) {
    // Mostly the RTTs campaigns see, some far beyond them.
    const double rtt = inputs.bernoulli(0.9) ? inputs.uniform(0.0, 400.0)
                                             : inputs.uniform(-2e5, 2e5);
    const auto probes = static_cast<unsigned>(
        inputs.uniform_int(1, kLatencyProbeBuffer + 8));
    oracle.check(rtt, probes);
  }
  EXPECT_EQ(oracle.calls(), 100000u);
  EXPECT_EQ(oracle.mismatches(), 0u);
}

TEST(LatencyProbeOracle, EdgeRttsAndProbeCountsMatch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double rtts[] = {0.0,   1e-9,  1e4,    99999.99, 1e5,
                         1e6,   -0.3,  -99999.0, -1e5,   kInf,
                         -kInf, std::numeric_limits<double>::quiet_NaN()};
  const unsigned probe_counts[] = {1u, 10u, kLatencyProbeBuffer,
                                   kLatencyProbeBuffer + 1};
  probe_oracle oracle(11);
  for (const double rtt : rtts) {
    for (const unsigned probes : probe_counts) {
      for (int i = 0; i < 500; ++i) oracle.check(rtt, probes);
    }
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
}

TEST(LatencyProbeOracle, ZeroProbesStillRejected) {
  rng r(1);
  EXPECT_THROW(run_latency_probe(path_with_rtt(10.0), 0, r),
               invalid_argument_error);
}

}  // namespace
}  // namespace clasp
