// Parallel replay determinism: the same campaign run with 1, 2 and 8
// workers — and replayed hour by hour without ever prefilling the
// hour-epoch link-condition cache — must produce point-for-point
// identical TSDB contents, billing totals, someta records and bucket
// artifacts. Every VM-hour draws from its own counter-based RNG stream
// and staged results merge in VM-slot order, so the worker count can
// only change wall-clock, never values; the cache stores exactly what
// the load model computes, so it too is invisible in the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <iterator>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

// --- counting allocator ---------------------------------------------------
// Binary-wide replacement of the global allocation functions so the
// steady-state staging test below can assert the worker path performs
// zero heap allocations. Counting is armed only around the measured
// section; outside it the replacement is a plain malloc shim.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// --------------------------------------------------------------------------

namespace clasp {
namespace {

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

platform_config tiny_config(unsigned workers) {
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.seed = 777;
  // Shrink the substrate: this test builds several platforms in sequence.
  cfg.internet.regional_isp_count = 120;
  cfg.internet.business_count = 150;
  cfg.internet.hosting_count = 80;
  cfg.internet.education_count = 30;
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.servers.us_server_target = 120;
  cfg.servers.global_server_target = 600;
  cfg.topology_budgets = {{"us-west1", 40}};
  cfg.campaign_workers = workers;
  return cfg;
}

hour_range two_days() {
  return {hour_stamp::from_civil({2020, 5, 1}, 0),
          hour_stamp::from_civil({2020, 5, 3}, 0)};
}

const char* kMetrics[] = {"download_mbps", "upload_mbps",   "latency_ms",
                          "download_loss", "upload_loss",   "gt_episode"};

// Everything a campaign produces, flattened for exact comparison.
struct campaign_snapshot {
  struct series_dump {
    std::string metric;
    tag_set tags;
    std::vector<ts_point> points;  // a copy of the series' points
  };
  std::vector<series_dump> series;
  cost_report costs;
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
  std::size_t tests_run{0};
  std::size_t tests_missed{0};
  unsigned effective_workers{0};
  std::vector<someta_summary> someta;  // per VM slot
  std::string csv;  // export_csv of all six metrics, concatenated
};

campaign_snapshot snapshot_of(clasp_platform& p, campaign_runner& c) {
  campaign_snapshot snap;
  for (const char* metric : kMetrics) {
    for (const ts_series* s : p.store().query(metric)) {
      const ts_point_view points = s->points();
      snap.series.push_back(
          {s->metric(), s->tags(), {points.begin(), points.end()}});
    }
  }
  snap.costs = p.cloud().costs();
  const storage_bucket& bucket = p.cloud().bucket(c.config().region);
  snap.bucket_mb = bucket.total_megabytes();
  snap.bucket_objects = bucket.object_count();
  snap.tests_run = c.tests_run();
  snap.tests_missed = c.tests_missed();
  snap.effective_workers = c.workers();
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    snap.someta.push_back(c.metadata(v).summary());
  }
  std::ostringstream csv;
  for (const char* metric : kMetrics) p.store().export_csv(csv, metric);
  snap.csv = csv.str();
  return snap;
}

// Exercise the outage path too: slot 0 down for four mid-window hours.
void inject_outage(campaign_runner& c) {
  c.inject_vm_outage(0, {two_days().begin_at + 20, two_days().begin_at + 24});
}

// Each worker count's platform is built once and its snapshot shared
// across tests (platform construction dominates this suite's runtime).
const campaign_snapshot& run_once(unsigned workers) {
  static std::map<unsigned, campaign_snapshot>* memo =
      new std::map<unsigned, campaign_snapshot>();
  const auto it = memo->find(workers);
  if (it != memo->end()) return it->second;

  clasp_platform p(tiny_config(workers));
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  inject_outage(c);
  c.run();
  return memo->emplace(workers, snapshot_of(p, c)).first->second;
}

// TSDB contents, point for point, in identical series order.
void expect_same_series(
    const std::vector<campaign_snapshot::series_dump>& a,
    const std::vector<campaign_snapshot::series_dump>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric, b[i].metric);
    EXPECT_EQ(a[i].tags, b[i].tags);
    ASSERT_EQ(a[i].points.size(), b[i].points.size());
    for (std::size_t j = 0; j < a[i].points.size(); ++j) {
      EXPECT_EQ(a[i].points[j].at, b[i].points[j].at);
      EXPECT_EQ(a[i].points[j].value, b[i].points[j].value);
    }
  }
}

void expect_same_costs(const cost_report& a, const cost_report& b) {
  EXPECT_EQ(a.vm_usd, b.vm_usd);
  EXPECT_EQ(a.egress_usd, b.egress_usd);
  EXPECT_EQ(a.storage_usd, b.storage_usd);
}

void expect_identical(const campaign_snapshot& a, const campaign_snapshot& b) {
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.tests_missed, b.tests_missed);

  // Billing totals, bit for bit.
  expect_same_costs(a.costs, b.costs);

  // Bucket artifacts.
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);

  expect_same_series(a.series, b.series);

  // someta records per VM slot.
  ASSERT_EQ(a.someta.size(), b.someta.size());
  for (std::size_t v = 0; v < a.someta.size(); ++v) {
    EXPECT_EQ(a.someta[v].tests, b.someta[v].tests) << "vm " << v;
    EXPECT_EQ(a.someta[v].saturated, b.someta[v].saturated) << "vm " << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.someta[v].peak_cpu),
              std::bit_cast<std::uint64_t>(b.someta[v].peak_cpu))
        << "vm " << v;
  }

  // Exported CSV, byte for byte.
  EXPECT_EQ(a.csv, b.csv);
}

TEST(CampaignParallelTest, WorkerCountNeverChangesResults) {
  const campaign_snapshot& serial = run_once(1);
  EXPECT_EQ(serial.effective_workers, 1u);
  EXPECT_GT(serial.tests_run, 0u);
  EXPECT_GT(serial.tests_missed, 0u);

  const campaign_snapshot& two = run_once(2);
  EXPECT_EQ(two.effective_workers, 2u);
  expect_identical(serial, two);

  const campaign_snapshot& eight = run_once(8);
  EXPECT_EQ(eight.effective_workers, 8u);
  expect_identical(serial, eight);
}

TEST(CampaignParallelTest, MetricsNeverChangeResults) {
  // Observability must be a pure observer: the same campaign with the
  // obs subsystem recording (counters, spans, heartbeat cadence) must be
  // byte-identical to the memoized metrics-off runs, for every worker
  // count. Runs fresh (not memoized) so the enabled flag is honored.
  const campaign_snapshot& reference = run_once(1);
  for (const unsigned workers : {1u, 2u, 8u}) {
    obs::metrics_registry::instance().reset_values();
    obs::trace_ring::instance().reset();
    obs::set_enabled(true);
    platform_config cfg = tiny_config(workers);
    cfg.obs_metrics = true;
    cfg.obs_heartbeat_every_hours = 7;  // exercise the heartbeat path too
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
    inject_outage(c);
    c.run();
    const campaign_snapshot snap = snapshot_of(p, c);
    obs::set_enabled(false);
    expect_identical(reference, snap);

    // The recorded totals must agree with the runner's own bookkeeping.
    const auto counters = obs::metrics_registry::instance().counters();
    EXPECT_EQ(counters.at(obs::family::kCampaignTests), snap.tests_run);
    EXPECT_EQ(counters.at(obs::family::kCampaignTestsMissed),
              snap.tests_missed);
    EXPECT_EQ(counters.at(obs::family::kCampaignHours), 48u);

    // The hour-epoch cache must be effective while being counted: after
    // the first hour warms it, virtually every link lookup hits.
    const std::uint64_t hits = counters.at(obs::family::kCacheHits);
    const std::uint64_t misses = counters.at(obs::family::kCacheMisses);
    ASSERT_GT(hits + misses, 0u);
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
              0.9);
  }
}

// The campaign replayed through public calls only, never prefilling the
// condition cache: every hop of every sweep takes the direct load-model
// computation. Returns the snapshot and the growth of
// clasp_cache_prefill_links_total over the replay.
std::pair<campaign_snapshot, std::uint64_t> unprefilled_replay(
    const platform_config& cfg) {
  obs::set_enabled(true);
  clasp_platform p(cfg);
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  inject_outage(c);
  const obs::counter& fills = obs::metrics_registry::instance().get_counter(
      obs::family::kCachePrefillLinks);
  const std::uint64_t before = fills.value();
  campaign_runner::vm_hour_staging staged;
  for (hour_stamp at = two_days().begin_at; at < two_days().end_at; ++at) {
    c.begin_hour(at);
    c.evaluate_hour(at);
    for (std::size_t v = 0; v < c.vm_count(); ++v) {
      c.stage_vm_hour_into(v, at, staged);
      c.commit_vm_hour(v, std::move(staged));
    }
  }
  c.charge_monthly_storage();
  const std::uint64_t filled = fills.value() - before;
  obs::set_enabled(false);
  return {snapshot_of(p, c), filled};
}

TEST(CampaignParallelTest, UnprefilledReplayMatchesRun) {
  // The condition cache may change speed, never a value: with faults off
  // and with the low preset (retries, churn, preemption), a replay that
  // never prefills matches run() on a twin platform byte for byte.
  for (const char* preset : {"off", "low"}) {
    platform_config cfg = tiny_config(1);
    cfg.campaign_faults = fault_config::preset(preset);
    campaign_snapshot reference;
    {
      clasp_platform p(cfg);
      campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
      inject_outage(c);
      EXPECT_TRUE(c.run());
      reference = snapshot_of(p, c);
    }
    ASSERT_GT(reference.tests_run, 0u) << preset;
    const auto [replayed, filled] = unprefilled_replay(cfg);
    EXPECT_EQ(filled, 0u) << preset;
    expect_identical(reference, replayed);
  }
}

TEST(CampaignParallelTest, ShardRangesCommittedInProcessMatchRun) {
  // The dist path's order in one process, so the thread sanitizer sees
  // it: each hour is staged by stage_shard_hour over three uneven slot
  // ranges, assembled in slot order and committed by commit_hour_group.
  // With and without a pool on the runner, faults off and low, it must
  // match run() on a twin platform byte for byte.
  for (const unsigned workers : {1u, 4u}) {
    for (const char* preset : {"off", "low"}) {
      platform_config cfg = tiny_config(workers);
      // Enough servers for five VMs, so the ranges can be uneven.
      cfg.servers.us_server_target = 300;
      cfg.topology_budgets = {{"us-west1", 80}};
      cfg.campaign_faults = fault_config::preset(preset);
      campaign_snapshot reference;
      {
        clasp_platform p(cfg);
        campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
        inject_outage(c);
        EXPECT_TRUE(c.run());
        reference = snapshot_of(p, c);
      }
      clasp_platform p(cfg);
      campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
      inject_outage(c);
      const std::size_t n = c.vm_count();
      ASSERT_GE(n, 5u);
      // One slot, then the rest split in two.
      const std::size_t bounds[] = {0, 1, 1 + (n - 1) / 2, n};
      std::vector<campaign_runner::vm_hour_staging> shard;
      std::vector<campaign_runner::vm_hour_staging> group(n);
      EXPECT_TRUE(c.run([&](hour_stamp at) {
        for (std::size_t r = 0; r + 1 < std::size(bounds); ++r) {
          c.stage_shard_hour(at, bounds[r], bounds[r + 1], shard);
          ASSERT_EQ(shard.size(), bounds[r + 1] - bounds[r]);
          std::move(shard.begin(), shard.end(), group.begin() + bounds[r]);
        }
        c.commit_hour_group(at, std::move(group));
      }));
      ASSERT_GT(reference.tests_run, 0u);
      ASSERT_GT(reference.tests_missed, 0u);
      expect_identical(reference, snapshot_of(p, c));
    }
  }
}

TEST(CampaignParallelTest, StagingWithoutEvaluateHourIsStateError) {
  // Staging reads only the hour's arena sweep: an hour evaluate_hour did
  // not sweep is a caller error, not a slow path.
  clasp_platform p(tiny_config(1));
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  const hour_stamp at = two_days().begin_at;
  campaign_runner::vm_hour_staging staged;
  EXPECT_THROW(c.stage_vm_hour_into(0, at, staged), state_error);
  c.evaluate_hour(at);
  EXPECT_NO_THROW(c.stage_vm_hour_into(0, at, staged));
  EXPECT_THROW(c.stage_vm_hour_into(0, at + 1, staged), state_error);
  // run_hour sweeps the hours it stages.
  c.run_hour(at);
  c.run_hour(at + 1);
  EXPECT_NO_THROW(c.stage_vm_hour_into(0, at + 1, staged));
  EXPECT_THROW(c.stage_vm_hour_into(0, at, staged), state_error);
}

TEST(CampaignParallelTest, SteadyStateStagingIsAllocationFree) {
  // The per-VM-hour worker path (stage_vm_hour_into after warmup) must
  // not touch the heap: every buffer it needs — staging vectors, the
  // session-order scratch, the artifact object name, charge-sheet put
  // records — is preallocated or recycled. Guarded by the binary-wide
  // counting allocator above.
  clasp_platform p(tiny_config(1));
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  const hour_stamp begin = two_days().begin_at;
  // Warm up: full hours grow every reusable buffer to steady-state
  // capacity (and resolve the arena + condition cache slots).
  for (int h = 0; h < 6; ++h) c.run_hour(begin + h);

  const hour_stamp at = begin + 6;
  c.begin_hour(at);
  p.view().link_cache().prefill(at);
  c.evaluate_hour(at);
  // One staging pass warms this thread's scratch and the reused slot.
  campaign_runner::vm_hour_staging staged;
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    c.stage_vm_hour_into(v, at, staged);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    c.stage_vm_hour_into(v, at, staged);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "stage_vm_hour_into allocated in steady state";
}

// --- two campaigns sharing one condition cache ---------------------------
// Campaigns on one platform share its network_view, hence one condition
// cache, and each prefills only the slots its own sessions cross. Two
// regions' topology campaigns overlap on transit links, so the order in
// which they are replayed decides which of them fills a shared slot for
// an hour; it must never decide a value.

constexpr const char* kTwoRegions[2] = {"us-west1", "us-west2"};

enum class two_campaign_order {
  campaign_major,  // day by day, each campaign's 24 hours in turn
  hour_major,      // hour by hour, both campaigns per hour
  only_first,      // the first campaign alone
  only_second,     // the second campaign alone
};

struct region_result {
  std::vector<campaign_snapshot::series_dump> series;
  std::size_t tests_run{0};
  std::size_t tests_missed{0};
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
};

struct two_campaign_result {
  region_result region[2];
  cost_report costs;
  std::size_t own_slots[2]{0, 0};
  std::size_t shared_slots{0};
  // Growth of clasp_cache_prefill_links_total over each replayed hour,
  // per campaign, in replay order.
  std::vector<std::uint64_t> fills[2];
};

two_campaign_result replay_two_campaigns(unsigned workers,
                                         two_campaign_order order) {
  platform_config cfg = tiny_config(workers);
  cfg.topology_budgets = {{kTwoRegions[0], 40}, {kTwoRegions[1], 20}};
  obs::set_enabled(true);
  clasp_platform p(cfg);
  // Both campaigns are deployed in every run, so VM attachments and cache
  // slots are the same; the "alone" orders replay only one of them.
  campaign_runner* runners[2] = {
      &p.start_topology_campaign(kTwoRegions[0], two_days()),
      &p.start_topology_campaign(kTwoRegions[1], two_days())};
  const obs::counter& fills = obs::metrics_registry::instance().get_counter(
      obs::family::kCachePrefillLinks);

  two_campaign_result out;
  const auto step = [&](int c, hour_stamp at) {
    const std::uint64_t before = fills.value();
    runners[c]->run_until(at + 1);
    out.fills[c].push_back(fills.value() - before);
  };
  const hour_stamp begin = two_days().begin_at;
  const auto hours = static_cast<int>(two_days().count());
  switch (order) {
    case two_campaign_order::campaign_major:
      for (int d = 0; d < hours / 24; ++d) {
        for (int c = 0; c < 2; ++c) {
          for (int i = 0; i < 24; ++i) step(c, begin + 24 * d + i);
        }
      }
      break;
    case two_campaign_order::hour_major:
      for (int h = 0; h < hours; ++h) {
        for (int c = 0; c < 2; ++c) step(c, begin + h);
      }
      break;
    case two_campaign_order::only_first:
    case two_campaign_order::only_second: {
      const int c = order == two_campaign_order::only_first ? 0 : 1;
      for (int h = 0; h < hours; ++h) step(c, begin + h);
      break;
    }
  }
  // Bill storage for every campaign that ran (a no-op replay otherwise).
  for (int c = 0; c < 2; ++c) {
    if (!out.fills[c].empty()) EXPECT_TRUE(runners[c]->run());
  }
  obs::set_enabled(false);

  for (int c = 0; c < 2; ++c) {
    region_result& r = out.region[c];
    for (const char* metric : kMetrics) {
      for (const ts_series* s : p.store().query(metric)) {
        if (s->tag("region") == kTwoRegions[c]) {
          const ts_point_view points = s->points();
          r.series.push_back(
              {s->metric(), s->tags(), {points.begin(), points.end()}});
        }
      }
    }
    r.tests_run = runners[c]->tests_run();
    r.tests_missed = runners[c]->tests_missed();
    const storage_bucket& bucket = p.cloud().bucket(kTwoRegions[c]);
    r.bucket_mb = bucket.total_megabytes();
    r.bucket_objects = bucket.object_count();
    out.own_slots[c] = runners[c]->cache_slots().size();
  }
  out.costs = p.cloud().costs();
  std::vector<std::uint32_t> shared;
  std::set_intersection(runners[0]->cache_slots().begin(),
                        runners[0]->cache_slots().end(),
                        runners[1]->cache_slots().begin(),
                        runners[1]->cache_slots().end(),
                        std::back_inserter(shared));
  out.shared_slots = shared.size();
  return out;
}

void expect_same_region(const region_result& a, const region_result& b) {
  expect_same_series(a.series, b.series);
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.tests_missed, b.tests_missed);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
}

// Billing is one platform-wide running sum, so interleaving two campaigns
// reorders its additions: across replay orders the totals may differ in
// the last bits, never more.
void expect_costs_near(const cost_report& a, const cost_report& b) {
  EXPECT_NEAR(a.vm_usd, b.vm_usd, 1e-9 * b.vm_usd);
  EXPECT_NEAR(a.egress_usd, b.egress_usd, 1e-9 * b.egress_usd);
  EXPECT_NEAR(a.storage_usd, b.storage_usd, 1e-9 * b.storage_usd);
}

TEST(CampaignParallelTest, CampaignScopedPrefillKeepsSharedCacheExact) {
  std::map<two_campaign_order, two_campaign_result> serial;
  for (const unsigned workers : {1u, 2u}) {
    std::map<two_campaign_order, two_campaign_result> runs;
    for (const two_campaign_order order :
         {two_campaign_order::campaign_major, two_campaign_order::hour_major,
          two_campaign_order::only_first, two_campaign_order::only_second}) {
      runs.emplace(order, replay_two_campaigns(workers, order));
    }
    const two_campaign_result& cm = runs.at(two_campaign_order::campaign_major);
    const two_campaign_result& hm = runs.at(two_campaign_order::hour_major);
    const two_campaign_result* alone[2] = {
        &runs.at(two_campaign_order::only_first),
        &runs.at(two_campaign_order::only_second)};

    // The campaigns overlap, and each also crosses links of its own.
    const std::size_t a = cm.own_slots[0];
    const std::size_t b = cm.own_slots[1];
    const std::size_t shared = cm.shared_slots;
    ASSERT_GT(shared, 0u);
    ASSERT_LT(shared, a);
    ASSERT_LT(shared, b);

    // Every replay order yields the same stores and test counts.
    for (int c = 0; c < 2; ++c) {
      EXPECT_GT(cm.region[c].tests_run, 0u);
      expect_same_region(cm.region[c], hm.region[c]);
      expect_same_region(cm.region[c], alone[c]->region[c]);
    }
    expect_costs_near(cm.costs, hm.costs);
    cost_report sum;
    sum.vm_usd = alone[0]->costs.vm_usd + alone[1]->costs.vm_usd;
    sum.egress_usd = alone[0]->costs.egress_usd + alone[1]->costs.egress_usd;
    sum.storage_usd =
        alone[0]->costs.storage_usd + alone[1]->costs.storage_usd;
    expect_costs_near(cm.costs, sum);

    // Each replayed hour fills the campaign's own slots, minus those the
    // other campaign already filled for the same hour. That happens to
    // the second campaign in both orders: the cache keeps a day of hours
    // per slot, so in campaign-major order the first campaign's fills of
    // the day are all still stamped when the second one replays it.
    const std::size_t hours = static_cast<std::size_t>(two_days().count());
    for (int c = 0; c < 2; ++c) {
      ASSERT_EQ(alone[c]->fills[c].size(), hours);
      EXPECT_TRUE(alone[1 - c]->fills[c].empty());
      for (const std::uint64_t n : alone[c]->fills[c]) {
        EXPECT_EQ(n, cm.own_slots[c]);
      }
    }
    ASSERT_EQ(hm.fills[0].size(), hours);
    ASSERT_EQ(cm.fills[1].size(), hours);
    for (std::size_t h = 0; h < hours; ++h) {
      EXPECT_EQ(hm.fills[0][h], a);
      EXPECT_EQ(hm.fills[1][h], b - shared);
      EXPECT_EQ(cm.fills[0][h], a);
      EXPECT_EQ(cm.fills[1][h], b - shared);
    }

    // The worker count changes nothing, costs included.
    if (workers == 1) {
      serial = std::move(runs);
      continue;
    }
    for (const auto& [order, run] : runs) {
      const two_campaign_result& ref = serial.at(order);
      for (int c = 0; c < 2; ++c) {
        expect_same_region(ref.region[c], run.region[c]);
        EXPECT_EQ(ref.fills[c], run.fills[c]);
      }
      expect_same_costs(ref.costs, run.costs);
    }
  }
}

}  // namespace
}  // namespace clasp
