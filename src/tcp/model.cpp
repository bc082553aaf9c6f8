#include "tcp/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace clasp {

namespace {

// Delayed-ACK factor in the PFTK/Mathis derivations.
constexpr double kAckedPerWindow = 1.0;

void check_args(millis rtt, double loss) {
  if (rtt.value <= 0.0) {
    throw invalid_argument_error("tcp model: rtt <= 0");
  }
  if (loss <= 0.0 || loss >= 1.0) {
    throw invalid_argument_error("tcp model: loss outside (0, 1)");
  }
}

}  // namespace

mbps mathis_throughput(millis rtt, double loss, unsigned mss_bytes) {
  check_args(rtt, loss);
  const double bits_per_segment = 8.0 * static_cast<double>(mss_bytes);
  const double rate_bps = bits_per_segment /
                          (rtt.seconds() * std::sqrt(2.0 * kAckedPerWindow *
                                                     loss / 3.0));
  return mbps{rate_bps / 1e6};
}

mbps pftk_throughput(millis rtt, double loss, unsigned mss_bytes,
                     double rto_seconds) {
  check_args(rtt, loss);
  const double p = loss;
  const double b = kAckedPerWindow;
  const double term_ca = rtt.seconds() * std::sqrt(2.0 * b * p / 3.0);
  const double term_to = rto_seconds *
                         std::min(1.0, 3.0 * std::sqrt(3.0 * b * p / 8.0)) *
                         p * (1.0 + 32.0 * p * p);
  const double bits_per_segment = 8.0 * static_cast<double>(mss_bytes);
  const double rate_bps = bits_per_segment / (term_ca + term_to);
  return mbps{rate_bps / 1e6};
}

flow_result run_speedtest_flow(const path_metrics& path,
                               const tcp_config& config, mbps rate_cap,
                               rng& noise) {
  if (config.connections == 0) {
    throw invalid_argument_error("run_speedtest_flow: zero connections");
  }
  if (rate_cap.value <= 0.0) {
    throw invalid_argument_error("run_speedtest_flow: non-positive cap");
  }
  flow_result out;
  out.rtt = path.rtt;

  // Loss floor: even clean paths see rare transient loss.
  const double p = std::clamp(path.loss, 1e-7, 0.6);
  const mbps per_conn =
      pftk_throughput(path.rtt, p, config.mss_bytes, config.rto_seconds);
  const mbps loss_bound = per_conn * static_cast<double>(config.connections);

  const mbps raw = std::min({path.bottleneck, loss_bound, rate_cap});
  out.loss_limited = loss_bound < path.bottleneck && loss_bound < rate_cap;

  const double jitter =
      std::exp(noise.normal(0.0, config.report_noise_sigma));
  out.goodput = raw * (config.efficiency * jitter);
  if (out.goodput.value < 0.05) out.goodput = mbps{0.05};  // test never reports 0

  out.volume = transfer_volume(out.goodput, config.duration_seconds);

  // Reported loss: path loss + self-induced loss.
  const double total_packets = std::max(
      out.volume.value * 1e6 / static_cast<double>(config.mss_bytes), 1.0);
  // Congestion-avoidance probing: a couple of drops per epoch per
  // connection; epochs shrink with the per-connection window.
  const double bdp_packets = std::max(
      out.goodput.bits_per_second() * path.rtt.seconds() /
          (8.0 * static_cast<double>(config.mss_bytes) *
           static_cast<double>(config.connections)),
      2.0);
  const double probing_loss = std::min(0.25 / bdp_packets, 0.02);
  // Slow-start overshoot: one early burst, a fraction of a BDP per
  // connection (pacing and HyStart keep it well under the full window).
  const double burst_packets =
      0.15 * bdp_packets * static_cast<double>(config.connections);
  const double burst_loss = burst_packets / total_packets;
  out.reported_loss = std::min(p + probing_loss + burst_loss, 0.95);
  return out;
}

millis run_latency_probe(const path_metrics& path, unsigned probes,
                         rng& noise) {
  if (probes == 0) {
    throw invalid_argument_error("run_latency_probe: zero probes");
  }
  // One probe: server think time 0.3 + Exp(2) plus queue jitter Exp(1),
  // each exponential drawn as -log(u) / rate from u in (0, 1).
  const double rtt = path.rtt.value;
  const auto probe_ms = [rtt](double u1, double u2) {
    const double think_ms = 0.3 + -std::log(u1) / 2.0;  // server overhead
    const double jitter_ms = -std::log(u2) / 1.0;       // queue jitter
    return rtt + think_ms + jitter_ms;
  };
  double best = 1e18;
  if (probes > kLatencyProbeBuffer || !(std::abs(rtt) < 1e5)) {
    for (unsigned i = 0; i < probes; ++i) {
      const double u1 = noise.uniform_positive();
      const double u2 = noise.uniform_positive();
      best = std::min(best, probe_ms(u1, u2));
    }
    return millis{best};
  }

  // A probe's value is rtt + 0.3 - ln(u1 * u2^2) / 2, so the smallest
  // belongs to the largest w = u1 * u2^2; only probes whose computed w is
  // within a relative 1e-9 of the largest are evaluated, by the same
  // expression as above. Why no other probe can hold the minimum:
  //  * u >= 2^-53, so -log(u) <= 36.8, and log errs by under one ulp
  //    there: under 2^-47 per log.
  //  * With |rtt| < 1e5 every partial sum stays below 2^17, so each of
  //    the three additions rounds by at most 2^-36. A computed probe
  //    value is within 3e-11 ms of the exact one.
  //  * w and the cut-off are each off by a few ulps (relative 1e-15), so
  //    a skipped probe's exact w is below w_max * (1 - 0.999e-9). Its
  //    exact value is then above the w_max probe's by more than 4.99e-10
  //    ms, and its computed value still by more than 4.3e-10 ms.
  // The w_max probe is always evaluated, so the minimum is the same
  // double. Values are finite and never -0.0, so min() cannot pick
  // between distinct bit patterns of equal values.
  double u1[kLatencyProbeBuffer];
  double u2[kLatencyProbeBuffer];
  double w[kLatencyProbeBuffer];
  double w_max = 0.0;
  for (unsigned i = 0; i < probes; ++i) {
    u1[i] = noise.uniform_positive();
    u2[i] = noise.uniform_positive();
    w[i] = u1[i] * u2[i] * u2[i];
    w_max = std::max(w_max, w[i]);
  }
  const double w_floor = w_max * (1.0 - 1e-9);
  for (unsigned i = 0; i < probes; ++i) {
    if (w[i] >= w_floor) best = std::min(best, probe_ms(u1[i], u2[i]));
  }
  return millis{best};
}

}  // namespace clasp
