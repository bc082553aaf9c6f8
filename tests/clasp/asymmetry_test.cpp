#include <gtest/gtest.h>

#include "clasp/analysis.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

constexpr timezone_offset kUtc{0};

struct triple {
  ts_series download{"download_mbps", {}};
  ts_series dl_loss{"download_loss", {}};
  ts_series ul_loss{"upload_loss", {}};
};

// Congestion at hour 20 each day; loss pattern chosen by the caller.
triple make_triple(int days, double dl_loss_peak, double ul_loss_peak) {
  triple t;
  const hour_stamp start = hour_stamp::from_civil({2020, 5, 1}, 0);
  for (int d = 0; d < days; ++d) {
    for (int h = 0; h < 24; ++h) {
      const hour_stamp at = start + d * 24 + h;
      const bool congested = h == 20;
      t.download.append(at, congested ? 100.0 : 500.0);
      t.dl_loss.append(at, congested ? dl_loss_peak : 0.002);
      t.ul_loss.append(at, congested ? ul_loss_peak : 0.002);
    }
  }
  return t;
}

TEST(AsymmetryTest, ReversePathCoxPattern) {
  // The paper's Cox case: heavy download loss, <1% upload loss.
  const triple t = make_triple(20, 0.30, 0.005);
  const asymmetry_summary s =
      classify_asymmetry(t.download, t.dl_loss, t.ul_loss, kUtc, 0.5);
  EXPECT_EQ(s.congested_hours, 20u);
  EXPECT_EQ(s.ingress_hours, 20u);
  EXPECT_EQ(s.egress_hours, 0u);
  EXPECT_EQ(s.dominant(), congestion_direction::ingress);
}

TEST(AsymmetryTest, ForwardPathPattern) {
  // Upload side lossy: congestion on the cloud -> ISP direction. The
  // download still has to *look* congested for hours to be classified,
  // which models shared-link congestion observed from both tests.
  const triple t = make_triple(10, 0.004, 0.25);
  const asymmetry_summary s =
      classify_asymmetry(t.download, t.dl_loss, t.ul_loss, kUtc, 0.5);
  EXPECT_EQ(s.egress_hours, 10u);
  EXPECT_EQ(s.dominant(), congestion_direction::egress);
}

TEST(AsymmetryTest, BothDirections) {
  const triple t = make_triple(10, 0.2, 0.2);
  const asymmetry_summary s =
      classify_asymmetry(t.download, t.dl_loss, t.ul_loss, kUtc, 0.5);
  EXPECT_EQ(s.both_hours, 10u);
  EXPECT_EQ(s.dominant(), congestion_direction::both);
}

TEST(AsymmetryTest, InconclusiveLoss) {
  // Loss between the clean and congested bounds: unknown.
  const triple t = make_triple(10, 0.02, 0.02);
  const asymmetry_summary s =
      classify_asymmetry(t.download, t.dl_loss, t.ul_loss, kUtc, 0.5);
  EXPECT_EQ(s.unknown_hours, 10u);
  EXPECT_EQ(s.dominant(), congestion_direction::unknown);
}

TEST(AsymmetryTest, NoCongestionNoHours) {
  triple t = make_triple(5, 0.3, 0.001);
  // Flatten the throughput: nothing crosses V_H = 0.5.
  ts_series flat("download_mbps", {});
  for (const ts_point p : t.download.points()) flat.append(p.at, 500.0);
  const asymmetry_summary s =
      classify_asymmetry(flat, t.dl_loss, t.ul_loss, kUtc, 0.5);
  EXPECT_EQ(s.congested_hours, 0u);
  EXPECT_EQ(s.dominant(), congestion_direction::unknown);
}

TEST(AsymmetryTest, MissingLossSeriesIsUnknown) {
  const triple t = make_triple(5, 0.3, 0.001);
  ts_series empty_loss("upload_loss", {});
  const asymmetry_summary s =
      classify_asymmetry(t.download, t.dl_loss, empty_loss, kUtc, 0.5);
  EXPECT_EQ(s.unknown_hours, s.congested_hours);
}

TEST(AsymmetryTest, BadThresholdsRejected) {
  const triple t = make_triple(5, 0.3, 0.001);
  EXPECT_THROW(classify_asymmetry(t.download, t.dl_loss, t.ul_loss, kUtc, 0.5,
                                  /*high_loss=*/0.01, /*low_loss=*/0.02),
               invalid_argument_error);
}

TEST(AsymmetryTest, DirectionNames) {
  EXPECT_STREQ(to_string(congestion_direction::ingress), "ingress");
  EXPECT_STREQ(to_string(congestion_direction::egress), "egress");
  EXPECT_STREQ(to_string(congestion_direction::both), "both");
  EXPECT_STREQ(to_string(congestion_direction::unknown), "unknown");
}

// End-to-end: the planted Cox archetype in the fixture produces
// ingress-dominant congestion through the real pipeline.
TEST(AsymmetryTest, CoxServersClassifyAsIngress) {
  auto& p = ::clasp::testing::small_platform();
  ::clasp::testing::ensure_east1_campaign(p);
  const clasp_platform::labeled_series data =
      p.download_series("topology", "us-east1");
  std::size_t cox_checked = 0;
  for (std::size_t i = 0; i < data.series.size(); ++i) {
    if (data.series[i]->tag("network").value_or("") != "22773") continue;
    tag_set tags = data.series[i]->tags();
    const ts_series* dl = p.store().find("download_loss", tags);
    const ts_series* ul = p.store().find("upload_loss", tags);
    ASSERT_NE(dl, nullptr);
    ASSERT_NE(ul, nullptr);
    const asymmetry_summary s =
        classify_asymmetry(*data.series[i], *dl, *ul, data.tz[i], 0.5);
    if (s.congested_hours < 3) continue;  // quiet server in short window
    ++cox_checked;
    EXPECT_GT(s.ingress_hours, s.egress_hours);
  }
  if (cox_checked == 0) {
    GTEST_SKIP() << "no congested Cox hours in the short fixture window";
  }
}

}  // namespace
}  // namespace clasp
