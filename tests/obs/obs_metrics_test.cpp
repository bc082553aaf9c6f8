#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace clasp {
namespace {

// Every test restores the global enabled flag: other suites in this
// binary rely on metrics being off by default.
class ObsMetricsTest : public ::testing::Test {
 protected:
  ObsMetricsTest() : was_enabled_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsMetricsTest() override { obs::set_enabled(was_enabled_); }
  bool was_enabled_;
};

TEST_F(ObsMetricsTest, CounterAggregatesAcrossShards) {
  obs::counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetricsTest, DisabledAddsAreDropped) {
  obs::counter c;
  obs::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  obs::set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsMetricsTest, ShardedAggregationUnderPool) {
  // Many threads hammering one counter must lose no increments, and the
  // value read after the pool barrier must be exact.
  obs::counter c;
  obs::histogram h(obs::duration_buckets());
  thread_pool pool(8);
  constexpr std::size_t kTasks = 10'000;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    c.add(1);
    h.observe(static_cast<double>(i % 7) * 0.01);
  });
  EXPECT_EQ(c.value(), kTasks);
  const obs::histogram::snapshot snap = h.read();
  EXPECT_EQ(snap.count, kTasks);
  std::uint64_t total = 0;
  for (const std::uint64_t n : snap.counts) total += n;
  EXPECT_EQ(total, kTasks);
}

TEST_F(ObsMetricsTest, GaugeLastWriteWins) {
  obs::gauge g;
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(ObsMetricsTest, HistogramBucketBoundariesAreInclusive) {
  // Prometheus `le` semantics: a sample equal to an upper bound lands in
  // that bucket, one epsilon above it spills into the next.
  const std::array<double, 3> bounds{1.0, 2.0, 5.0};
  obs::histogram h(bounds);
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // bucket le=1 (inclusive)
  h.observe(1.001); // bucket le=2
  h.observe(5.0);   // bucket le=5
  h.observe(99.0);  // overflow
  const obs::histogram::snapshot snap = h.read();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_NEAR(snap.sum, 106.501, 1e-9);
}

TEST_F(ObsMetricsTest, SnapshotQuantileInterpolates) {
  const std::array<double, 2> bounds{10.0, 20.0};
  obs::histogram h(bounds);
  for (int i = 0; i < 100; ++i) h.observe(5.0);   // all in le=10
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  // Empty snapshot: quantile is 0 by definition.
  obs::histogram empty(bounds);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
}

TEST_F(ObsMetricsTest, RegistryHandlesAreStableAcrossReset) {
  obs::metrics_registry reg;
  obs::counter& c = reg.get_counter("clasp_test_total");
  c.add(7);
  EXPECT_EQ(&reg.get_counter("clasp_test_total"), &c);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(reg.counters().at("clasp_test_total"), 1u);
}

TEST_F(ObsMetricsTest, RegisterCoreFamiliesCoversTaxonomy) {
  obs::register_core_families();
  const auto counters = obs::metrics_registry::instance().counters();
  const auto gauges = obs::metrics_registry::instance().gauges();
  const auto histograms = obs::metrics_registry::instance().histograms();
  // One representative per instrumented subsystem: campaign, pool,
  // cache, TSDB, checkpoint, faults. The retired write-ahead log and
  // sealed-segment families stay gone.
  EXPECT_TRUE(counters.contains(obs::family::kCampaignTests));
  EXPECT_TRUE(counters.contains(obs::family::kCacheHits));
  EXPECT_TRUE(counters.contains(obs::family::kTsdbSnapshots));
  EXPECT_TRUE(counters.contains(obs::family::kCheckpointPublishes));
  EXPECT_TRUE(counters.contains(obs::family::kCheckpointBytesWritten));
  EXPECT_TRUE(counters.contains(obs::family::kCheckpointCompactions));
  EXPECT_FALSE(counters.contains("clasp_wal_appends_total"));
  EXPECT_FALSE(counters.contains("clasp_wal_bytes_total"));
  EXPECT_FALSE(counters.contains("clasp_wal_flushes_total"));
  EXPECT_FALSE(gauges.contains("clasp_checkpoint_sealed_segments"));
  EXPECT_TRUE(counters.contains(obs::family::kFaultsPreempts));
  EXPECT_TRUE(gauges.contains(obs::family::kPoolUtilization));
  EXPECT_TRUE(gauges.contains(obs::family::kCampaignCursorHours));
  EXPECT_TRUE(histograms.contains(obs::family::kCampaignHourSeconds));
}

TEST_F(ObsMetricsTest, PrometheusExpositionGolden) {
  obs::metrics_registry reg;
  obs::trace_ring ring;
  reg.get_counter("clasp_demo_total").add(3);
  reg.get_gauge("clasp_demo_gauge").set(2.5);
  const std::array<double, 2> bounds{1.0, 2.0};
  obs::histogram& h = reg.get_histogram("clasp_demo_seconds", bounds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(7.0);
  const std::string text = obs::to_prometheus(reg, ring);
  const std::string expected_head =
      "# TYPE clasp_demo_total counter\n"
      "clasp_demo_total 3\n"
      "# TYPE clasp_demo_gauge gauge\n"
      "clasp_demo_gauge 2.5\n"
      "# TYPE clasp_demo_seconds histogram\n"
      "clasp_demo_seconds_bucket{le=\"1\"} 1\n"
      "clasp_demo_seconds_bucket{le=\"2\"} 2\n"
      "clasp_demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "clasp_demo_seconds_sum 9\n"
      "clasp_demo_seconds_count 3\n";
  ASSERT_GE(text.size(), expected_head.size());
  EXPECT_EQ(text.substr(0, expected_head.size()), expected_head);
  // The empty ring still exposes every phase, zeroed, set-up phases too.
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const std::string name = obs::to_string(static_cast<obs::phase>(i));
    EXPECT_NE(name, "?");
    const std::string line =
        "clasp_span_count_total{phase=\"" + name + "\"} 0\n";
    EXPECT_NE(text.find(line), std::string::npos) << name;
  }
  EXPECT_NE(text.find("# TYPE clasp_span_wall_seconds_total counter\n"),
            std::string::npos);
}

TEST_F(ObsMetricsTest, JsonExpositionGolden) {
  obs::metrics_registry reg;
  obs::trace_ring ring;
  reg.get_counter("clasp_demo_total").add(2);
  ring.record({obs::phase::stage, 12, 2'000'000'000ull, 500'000'000ull});
  const std::string json = obs::to_json(reg, ring);
  EXPECT_NE(json.find("\"clasp_demo_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"stage\": {\"count\": 1, \"wall_seconds\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("{\"phase\": \"stage\", \"hour\": 12, "
                      "\"wall_seconds\": 2, \"cpu_seconds\": 0.5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"recent_wall_seconds_p50\": 2"), std::string::npos);
}

TEST_F(ObsMetricsTest, TraceRingBoundsAndRollups) {
  obs::trace_ring ring;
  ring.set_capacity(3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ring.record({obs::phase::commit, static_cast<std::int64_t>(i), i * 100,
                 i * 10});
  }
  const std::vector<obs::span_record> recent = ring.recent();
  ASSERT_EQ(recent.size(), 3u);  // oldest two were overwritten
  EXPECT_EQ(recent.front().hour, 3);
  EXPECT_EQ(recent.back().hour, 5);
  const auto rollups = ring.rollups();
  const obs::phase_rollup& commit =
      rollups[static_cast<std::size_t>(obs::phase::commit)];
  EXPECT_EQ(commit.count, 5u);  // rollups count everything, ring is bounded
  EXPECT_EQ(commit.wall_ns, 1500u);
  EXPECT_EQ(commit.max_wall_ns, 500u);
  ring.reset();
  EXPECT_TRUE(ring.recent().empty());
  EXPECT_EQ(ring.rollups()[static_cast<std::size_t>(obs::phase::commit)].count,
            0u);
}

TEST_F(ObsMetricsTest, SetUpPhasesAreCpuTimed) {
  // World generation and each region's selection are one-off heavyweight
  // phases, timed in CPU like deploy.
  EXPECT_TRUE(obs::cpu_timed(obs::phase::world));
  EXPECT_TRUE(obs::cpu_timed(obs::phase::select));
  EXPECT_TRUE(obs::cpu_timed(obs::phase::deploy));
  EXPECT_FALSE(obs::cpu_timed(obs::phase::stage));
  EXPECT_STREQ(obs::to_string(obs::phase::world), "world");
  EXPECT_STREQ(obs::to_string(obs::phase::select), "select");
}

TEST_F(ObsMetricsTest, TraceSpanRecordsIntoGlobalRing) {
  obs::trace_ring::instance().reset();
  {
    const obs::trace_span span(obs::phase::prefill, 42);
  }
  const auto rollups = obs::trace_ring::instance().rollups();
  EXPECT_EQ(rollups[static_cast<std::size_t>(obs::phase::prefill)].count, 1u);
  const auto recent = obs::trace_ring::instance().recent();
  ASSERT_FALSE(recent.empty());
  EXPECT_EQ(recent.back().hour, 42);
  obs::trace_ring::instance().reset();
}

TEST_F(ObsMetricsTest, DisabledSpanRecordsNothing) {
  obs::trace_ring::instance().reset();
  obs::set_enabled(false);
  {
    const obs::trace_span span(obs::phase::prefill, 1);
  }
  EXPECT_TRUE(obs::trace_ring::instance().recent().empty());
}

}  // namespace
}  // namespace clasp
