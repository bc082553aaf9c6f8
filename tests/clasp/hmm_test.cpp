#include "clasp/hmm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

// Synthetic observation sequence from a known two-state process.
std::vector<double> synth_sequence(rng& r, std::size_t n, double p_enter,
                                   double p_stay, double lo_mean,
                                   double hi_mean, double sigma,
                                   std::vector<bool>* truth = nullptr) {
  std::vector<double> obs;
  bool congested = false;
  for (std::size_t i = 0; i < n; ++i) {
    congested = congested ? r.bernoulli(p_stay) : r.bernoulli(p_enter);
    if (truth) truth->push_back(congested);
    obs.push_back(r.normal(congested ? hi_mean : lo_mean, sigma));
  }
  return obs;
}

TEST(HmmFitTest, RecoversSeparatedStates) {
  rng r(1);
  const auto obs = synth_sequence(r, 2000, 0.05, 0.85, 0.10, 0.70, 0.08);
  const hmm_model m = fit_hmm(obs);
  EXPECT_TRUE(m.converged);
  EXPECT_NEAR(m.mean[0], 0.10, 0.05);
  EXPECT_NEAR(m.mean[1], 0.70, 0.08);
  EXPECT_GT(m.stay_congested, 0.6);
  EXPECT_GT(m.stay_normal, 0.85);
}

TEST(HmmFitTest, StateOrderingInvariant) {
  rng r(2);
  const auto obs = synth_sequence(r, 1000, 0.1, 0.8, 0.2, 0.6, 0.1);
  const hmm_model m = fit_hmm(obs);
  EXPECT_LE(m.mean[0], m.mean[1]);
  EXPECT_GE(m.stddev[0], 0.02 - 1e-12);
  EXPECT_GE(m.stddev[1], 0.02 - 1e-12);
}

TEST(HmmFitTest, RejectsTinySequences) {
  const std::vector<double> few{0.1, 0.2, 0.3};
  EXPECT_THROW(fit_hmm(few), invalid_argument_error);
}

TEST(HmmFitTest, StableOnConstantSeries) {
  const std::vector<double> flat(100, 0.25);
  const hmm_model m = fit_hmm(flat);
  // Degenerate input must not produce NaNs or zero stddevs.
  EXPECT_TRUE(std::isfinite(m.mean[0]));
  EXPECT_TRUE(std::isfinite(m.mean[1]));
  EXPECT_GE(m.stddev[0], 0.02 - 1e-12);
}

TEST(HmmViterbiTest, DecodesPlantedEpisodes) {
  rng r(3);
  std::vector<bool> truth;
  const auto obs =
      synth_sequence(r, 3000, 0.04, 0.90, 0.10, 0.75, 0.07, &truth);
  const hmm_model m = fit_hmm(obs);
  const auto decoded = viterbi_decode(m, obs);
  ASSERT_EQ(decoded.size(), truth.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    agree += decoded[i] == truth[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(agree) / truth.size(), 0.92);
}

TEST(HmmViterbiTest, EmptyAndSingle) {
  hmm_model m;
  EXPECT_TRUE(viterbi_decode(m, {}).empty());
  const std::vector<double> one{0.9};
  const auto path = viterbi_decode(m, one);
  ASSERT_EQ(path.size(), 1u);
}

TEST(HmmViterbiTest, PersistenceSmoothsIsolatedSpikes) {
  // One isolated high observation inside a long normal run should not be
  // labeled congested when transitions are sticky.
  hmm_model m;
  m.stay_normal = 0.99;
  m.stay_congested = 0.7;
  m.mean[0] = 0.1;
  m.mean[1] = 0.7;
  m.stddev[0] = 0.15;
  m.stddev[1] = 0.15;
  std::vector<double> obs(50, 0.1);
  obs[25] = 0.55;  // ambiguous spike
  const auto path = viterbi_decode(m, obs);
  EXPECT_FALSE(path[25]);
}

// --- series-level detector -------------------------------------------------

ts_series make_diurnal_series(int days, bool congested_evenings) {
  ts_series s("download_mbps", {});
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  rng r(9);
  for (int d = 0; d < days; ++d) {
    for (int h = 0; h < 24; ++h) {
      double value = 500.0 + r.uniform(-20.0, 20.0);
      if (congested_evenings && h >= 19 && h <= 22 && d % 2 == 0) {
        value = 120.0 + r.uniform(-20.0, 20.0);
      }
      s.append(start + d * 24 + h, value);
    }
  }
  return s;
}

TEST(HmmDetectorTest, FlagsCongestedSeries) {
  const ts_series s = make_diurnal_series(30, true);
  const hmm_detection det = hmm_detector(s, timezone_offset{0});
  ASSERT_TRUE(det.usable);
  ASSERT_EQ(det.congested.size(), s.size());
  std::size_t flagged = 0, correct = 0, evening_hours = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const ts_point p = s.points()[i];
    const unsigned h = p.at.utc_hour_of_day();
    const int d = static_cast<int>(p.at.utc_day_index() -
                                   s.points().front().at.utc_day_index());
    const bool truth = h >= 19 && h <= 22 && d % 2 == 0;
    evening_hours += truth ? 1 : 0;
    flagged += det.congested[i] ? 1 : 0;
    if (det.congested[i] && truth) ++correct;
  }
  EXPECT_GT(correct, evening_hours * 7 / 10);   // recall > 70%
  EXPECT_LT(flagged, evening_hours * 2);        // not wildly over-flagging
}

TEST(HmmDetectorTest, QuietSeriesUnusableOrSilent) {
  const ts_series s = make_diurnal_series(30, false);
  const hmm_detection det = hmm_detector(s, timezone_offset{0});
  std::size_t flagged = 0;
  for (const bool c : det.congested) flagged += c ? 1 : 0;
  // Either the separation gate rejects the fit or nearly nothing is
  // flagged.
  EXPECT_LT(flagged, s.size() / 20);
}

TEST(HmmDetectorTest, ShortSeriesHandled) {
  ts_series s("m", {});
  for (int i = 0; i < 5; ++i) s.append(hour_stamp{i}, 100.0);
  const hmm_detection det = hmm_detector(s, timezone_offset{0});
  EXPECT_FALSE(det.usable);
  EXPECT_EQ(det.congested.size(), s.size());
}

}  // namespace
}  // namespace clasp
