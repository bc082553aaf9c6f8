// VM metadata recording (someta analogue, Sommers et al. IMC'17).
//
// §3.2: the measurement script runs someta to record VM metadata during
// every test, and the authors "examined the resource usage during tests
// and found that the VM type we chose had sufficient computational power
// to support the test without depleting the CPU resource, which could
// degrade network throughput". This module models per-test CPU usage of
// the headless-browser speed test on a given machine type and flags
// tests where CPU saturation would have capped throughput.
//
// That check is all the paper uses someta for, so a VM keeps a running
// summary (tests, saturated tests, peak CPU) rather than a sample per
// test: over the May-Sep window a sample history would be millions of
// records that nothing reads.
#pragma once

#include <algorithm>
#include <cstddef>

#include "cloud/gcp.hpp"
#include "util/rng.hpp"

namespace clasp {

// Whether a test at this CPU utilization would have throttled.
inline bool cpu_saturated(double cpu_utilization) {
  return cpu_utilization >= 0.95;
}

// Model the CPU utilization (0..1 across all vCPUs) of one speed test:
// the Chromium renderer and TLS cost scale with throughput; the baseline
// covers cron, tcpdump and someta itself. Draws from `r` exactly what
// the full resource model (CPU, memory, iowait) draws, so every later
// draw of the stream is unchanged.
double test_cpu_utilization(const machine_type& machine,
                            mbps observed_throughput, rng& r);

// A VM's someta record: how many tests ran, how many saturated the CPU
// and the highest utilization seen.
struct someta_summary {
  std::size_t tests{0};
  std::size_t saturated{0};
  double peak_cpu{0.0};
};

// A rolling recorder, one per VM, mirroring someta's periodic snapshots.
class someta_recorder {
 public:
  explicit someta_recorder(machine_type machine)
      : machine_(std::move(machine)) {}

  // Model one test on this VM and record it; returns its CPU utilization.
  double record(mbps observed_throughput, rng& r);

  // Fold in tests modeled off-thread (via test_cpu_utilization): `tests`
  // of them, `saturated` saturated, peaking at `peak_cpu`. Lets campaign
  // workers stage an hour without mutating the recorder concurrently;
  // folding in commit order gives the same summary as recording each
  // test here.
  void absorb(std::size_t tests, std::size_t saturated, double peak_cpu) {
    summary_.tests += tests;
    summary_.saturated += saturated;
    summary_.peak_cpu = std::max(summary_.peak_cpu, peak_cpu);
  }

  // Checkpoint restore: replace the summary wholesale (the machine type
  // is rebuilt by the deterministic re-deploy).
  void restore(const someta_summary& summary) { summary_ = summary; }

  const someta_summary& summary() const { return summary_; }
  // Fraction of recorded tests with a saturated CPU (the paper's claim:
  // ~0 for n1-standard-2 at <= 1 Gbps).
  double saturation_fraction() const;
  double peak_cpu() const { return summary_.peak_cpu; }

 private:
  machine_type machine_;
  someta_summary summary_;
};

}  // namespace clasp
