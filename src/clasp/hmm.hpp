// Two-state Gaussian hidden-Markov congestion detector.
//
// §5 of the paper lists hidden Markov models (Mouchet et al.) as future
// work for capturing congestion patterns in throughput series. This is a
// complete implementation: a two-state HMM (normal / congested) with
// Gaussian emissions over the normalized throughput deficit, fitted with
// Baum-Welch (EM) and decoded with Viterbi. Compared to the paper's
// fixed-threshold V_H rule it adapts per series and enforces temporal
// persistence (congestion episodes last hours, not isolated samples).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tsdb/tsdb.hpp"
#include "util/sim_time.hpp"

namespace clasp {

// Parameters of a fitted two-state Gaussian HMM. State 0 = normal,
// state 1 = congested (higher mean deficit).
struct hmm_model {
  double initial_congested{0.1};
  // Transition probabilities.
  double stay_normal{0.95};
  double stay_congested{0.80};
  // Gaussian emissions over the observation (throughput deficit).
  double mean[2] = {0.1, 0.6};
  double stddev[2] = {0.1, 0.2};
  // Fit diagnostics.
  double log_likelihood{0.0};
  std::size_t iterations{0};
  bool converged{false};
};

struct hmm_config {
  std::size_t max_iterations{60};
  double tolerance{1e-5};
  // Lower bound on emission standard deviations (keeps EM stable on
  // near-constant series).
  double min_stddev{0.02};
};

// Fit a two-state model to an observation sequence with Baum-Welch.
// Observations are arbitrary real values (the detector uses the V_H-style
// deficit in [0, 1]). Throws invalid_argument_error for fewer than 8
// observations.
hmm_model fit_hmm(std::span<const double> observations,
                  const hmm_config& config = {});

// Most-likely state sequence (Viterbi); true = congested.
std::vector<bool> viterbi_decode(const hmm_model& model,
                                 std::span<const double> observations);

// Full detector over a throughput series: computes the per-hour deficit
// V_H(s,t) (normalized against the local-day maximum, as §3.3), fits the
// HMM, and returns one congestion label per point of the series, in its
// time order. The fit is only trusted ("usable") when the congested state is
// both well separated (mean gap >= `min_separation`) and genuinely deep
// (mean deficit >= `min_congested_mean`) — otherwise the second state is
// just the ordinary diurnal dip and the series is treated as uncongested.
struct hmm_detection {
  hmm_model model;
  std::vector<bool> congested;  // label i is the series' point i
  bool usable{false};           // states separated enough to trust
};

hmm_detection hmm_detector(const ts_series& series, timezone_offset tz,
                           double min_separation = 0.30,
                           double min_congested_mean = 0.45,
                           const hmm_config& config = {});

}  // namespace clasp
