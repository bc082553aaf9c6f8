// Flow-level TCP throughput model for speed-test sessions.
//
// The substrate does not simulate packets; a speed-test transfer is
// evaluated analytically from the path's instantaneous condition:
//
//  * steady-state per-connection throughput follows the PFTK model
//    (Padhye et al.) with the Mathis formula as its no-timeout limit,
//  * a web speed test runs several parallel connections, so the
//    loss-bounded aggregate is connections x PFTK,
//  * the final goodput is the minimum of available bandwidth, the
//    loss/RTT bound, the configured rate caps (tc shaping on the VM,
//    server NIC), times a measured-efficiency factor,
//  * the *reported* loss rate combines path loss with self-induced loss
//    (slow-start overshoot burst + congestion-avoidance probing), which
//    is how a test can report >10% loss while still moving data — the
//    paper's premium-tier observation (§4.1).
#pragma once

#include "netsim/network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace clasp {

struct tcp_config {
  unsigned mss_bytes{1460};
  unsigned connections{6};       // parallel streams of a web speed test
  double duration_seconds{15.0}; // measurement phase length
  double rto_seconds{0.3};       // retransmission timeout estimate
  double efficiency{0.93};       // protocol + ramp-up overhead factor
  double report_noise_sigma{0.025};  // client-side reporting noise
};

// Mathis et al. steady-state bound: MSS / (RTT * sqrt(2p/3)).
mbps mathis_throughput(millis rtt, double loss, unsigned mss_bytes);

// PFTK full model including the timeout term; reduces to Mathis for
// small p. Throws invalid_argument_error for rtt <= 0 or loss outside
// (0, 1).
mbps pftk_throughput(millis rtt, double loss, unsigned mss_bytes,
                     double rto_seconds);

// Result of one emulated speed-test transfer.
struct flow_result {
  mbps goodput;              // what the web UI reports
  double reported_loss{0.0}; // tcpdump-style loss over the whole flow
  millis rtt;                // mean RTT during the transfer
  megabytes volume;          // bytes moved (drives egress billing)
  bool loss_limited{false};  // the PFTK bound was the binding constraint
};

// Evaluate one transfer over a path condition. `rate_cap` is the minimum
// of all shaping caps that apply to this direction (VM tc limit, server
// NIC provisioning). `noise` supplies client-side measurement noise.
flow_result run_speedtest_flow(const path_metrics& path,
                               const tcp_config& config, mbps rate_cap,
                               rng& noise);

// Latency as reported by a web speed test's ping phase: the minimum of
// `probes` HTTP round trips, each the path RTT plus server think time.
millis run_latency_probe(const path_metrics& path, unsigned probes,
                         rng& noise);

// Up to this many probes, run_latency_probe ranks them from their draws
// and takes logarithms only for the few that can be the minimum; more
// probes take the plain one-log-per-draw loop. Same results either way.
inline constexpr unsigned kLatencyProbeBuffer = 32;

}  // namespace clasp
