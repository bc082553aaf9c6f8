// Microbenchmarks of the substrate's hot paths (google-benchmark).
//
// These are the operations that bound a full campaign's wall-clock:
// internet generation, route construction, per-hour path evaluation,
// a complete speed test and its ping and someta kernels, traceroute, and
// time-series writes.
//
// BM_CampaignHour additionally writes BENCH_campaign.json next to the
// binary: per-(workers, fleet_scale) ns/hour plus BM_LinkHourEval's
// batched-vs-per-session speedup, for machine consumption by CI trend
// tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "clasp/platform.hpp"
#include "cloud/someta.hpp"
#include "netsim/network.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "probes/traceroute.hpp"
#include "speedtest/webtest.hpp"
#include "tcp/model.hpp"

namespace {

using namespace clasp;

// (workers, fleet_scale) -> accumulated run_hour time, for
// BENCH_campaign.json.
struct campaign_bench_total {
  double ns{0.0};
  std::int64_t hours{0};
};
using campaign_bench_key = std::pair<int, int>;
std::map<campaign_bench_key, campaign_bench_total>& campaign_totals() {
  static auto* totals =
      new std::map<campaign_bench_key, campaign_bench_total>();
  return *totals;
}

clasp_platform& shared_platform() {
  static clasp_platform* platform = [] {
    platform_config cfg;
    return new clasp_platform(cfg);
  }();
  return *platform;
}

// A second platform with a 10x-replicated fleet: same world (replicas
// share their base servers' host attachments), ten times the measurement
// load per campaign hour.
clasp_platform& scaled_platform() {
  static clasp_platform* platform = [] {
    platform_config cfg;
    cfg.fleet_scale = 10;
    return new clasp_platform(cfg);
  }();
  return *platform;
}

void BM_GenerateInternet(benchmark::State& state) {
  internet_config cfg;
  cfg.regional_isp_count = static_cast<std::size_t>(state.range(0));
  cfg.business_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    internet net = generate_internet(cfg);
    benchmark::DoNotOptimize(net.topo->link_count());
  }
  state.SetLabel(std::to_string(generate_internet(cfg).topo->as_count()) +
                 " ASes");
}
BENCHMARK(BM_GenerateInternet)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_RouteConstruction(benchmark::State& state) {
  auto& p = shared_platform();
  route_planner& planner = p.planner();
  const city_id region = p.cloud().region_city("us-east1");
  const auto router = p.net().topo->router_of(p.net().cloud, region);
  const endpoint vm{p.net().cloud, region,
                    p.net().topo->router_at(*router).loopback, std::nullopt};
  const auto& vps = p.net().vantage_points;
  std::size_t i = 0;
  for (auto _ : state) {
    const endpoint src = planner.endpoint_of_host(vps[i++ % vps.size()]);
    benchmark::DoNotOptimize(
        planner.to_cloud(src, vm, service_tier::premium).routers.size());
  }
}
BENCHMARK(BM_RouteConstruction);

void BM_PathEvaluation(benchmark::State& state) {
  auto& p = shared_platform();
  const city_id region = p.cloud().region_city("us-east1");
  const auto router = p.net().topo->router_of(p.net().cloud, region);
  const endpoint vm{p.net().cloud, region,
                    p.net().topo->router_at(*router).loopback, std::nullopt};
  const endpoint src =
      p.planner().endpoint_of_host(p.net().vantage_points.front());
  const route_path path = p.planner().to_cloud(src, vm, service_tier::premium);
  std::int64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.view().evaluate(path, hour_stamp{h++ % 3672}).rtt.value);
  }
}
BENCHMARK(BM_PathEvaluation);

void BM_EvaluatePathFlat(benchmark::State& state) {
  // The session fast path: the route flattened once, evaluations walking
  // the contiguous hop array (no cache; compare against BM_PathEvaluation
  // for the flattening win alone).
  auto& p = shared_platform();
  const city_id region = p.cloud().region_city("us-east1");
  const auto router = p.net().topo->router_of(p.net().cloud, region);
  const endpoint vm{p.net().cloud, region,
                    p.net().topo->router_at(*router).loopback, std::nullopt};
  const endpoint src =
      p.planner().endpoint_of_host(p.net().vantage_points.front());
  const route_path path = p.planner().to_cloud(src, vm, service_tier::premium);
  network_view view(&p.net());
  const flat_path flat = view.flatten(path);
  std::int64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        view.evaluate(flat, hour_stamp{h++ % 3672}).rtt.value);
  }
}
BENCHMARK(BM_EvaluatePathFlat);

void BM_EvaluatePathCached(benchmark::State& state) {
  // The campaign hot loop's steady state: flat path + a prefilled
  // hour-epoch condition cache, so every hop is two table lookups.
  auto& p = shared_platform();
  const city_id region = p.cloud().region_city("us-east1");
  const auto router = p.net().topo->router_of(p.net().cloud, region);
  const endpoint vm{p.net().cloud, region,
                    p.net().topo->router_at(*router).loopback, std::nullopt};
  const endpoint src =
      p.planner().endpoint_of_host(p.net().vantage_points.front());
  const route_path path = p.planner().to_cloud(src, vm, service_tier::premium);
  network_view view(&p.net());
  const flat_path flat = view.flatten(path);
  view.link_cache().register_path(path);
  const hour_stamp at{20};  // one prefilled epoch, as within a replay hour
  view.link_cache().prefill(at);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.evaluate(flat, at).rtt.value);
  }
}
BENCHMARK(BM_EvaluatePathCached);

void BM_SpeedTest(benchmark::State& state) {
  auto& p = shared_platform();
  static gcp_cloud::vm_id vm =
      p.cloud().create_vm("us-east1", service_tier::premium);
  const auto us = p.registry().crawl("US");
  speed_test_session session(&p.cloud(), &p.view(), vm,
                             p.registry().server(us.front()));
  rng r(1);
  std::int64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.run(hour_stamp{h++ % 3672}, r).download.value);
  }
}
BENCHMARK(BM_SpeedTest);

// One session's ping phase: the minimum of the default ten probes over
// a 40 ms path.
void BM_LatencyProbe(benchmark::State& state) {
  path_metrics m;
  m.rtt = millis{40.0};
  m.base_rtt = millis{40.0};
  const auto probes = speed_test_config{}.latency_probes;
  rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_latency_probe(m, probes, r).value);
  }
}
BENCHMARK(BM_LatencyProbe);

// One test's someta CPU model on the paper's machine type.
void BM_SometaSample(benchmark::State& state) {
  const machine_type& n1 = machine_type_by_name("n1-standard-2");
  rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(test_cpu_utilization(n1, mbps{600.0}, r));
  }
}
BENCHMARK(BM_SometaSample);

void BM_Traceroute(benchmark::State& state) {
  auto& p = shared_platform();
  const city_id region = p.cloud().region_city("us-west1");
  const auto router = p.net().topo->router_of(p.net().cloud, region);
  const endpoint vm{p.net().cloud, region,
                    p.net().topo->router_at(*router).loopback, std::nullopt};
  const endpoint dst =
      p.planner().endpoint_of_host(p.net().vantage_points.front());
  const route_path path =
      p.planner().from_cloud(vm, dst, service_tier::premium);
  network_view view(&p.net());
  prober probe(&p.planner(), &view);
  rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe.traceroute(path, hour_stamp{12}, r).hops.size());
  }
}
BENCHMARK(BM_Traceroute);

void BM_TsdbWrite(benchmark::State& state) {
  tsdb db;
  const tag_set tags = {{"campaign", "bench"}, {"server", "1"}};
  std::int64_t h = 0;
  for (auto _ : state) {
    db.write("download_mbps", tags, hour_stamp{h++}, 123.4);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbWrite);

void BM_TsdbWriteInterned(benchmark::State& state) {
  // The campaign fast path: tag set resolved once, appends go through an
  // integer ref (compare against BM_TsdbWrite's per-point string keying).
  tsdb db;
  const series_ref ref =
      db.open_series("download_mbps", {{"campaign", "bench"}, {"server", "1"}});
  std::int64_t h = 0;
  for (auto _ : state) {
    db.write(ref, hour_stamp{h++}, 123.4);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbWriteInterned);

void BM_TsdbQuery(benchmark::State& state) {
  tsdb db;
  for (int s = 0; s < 200; ++s) {
    const tag_set tags = {{"campaign", "bench"},
                          {"server", std::to_string(s)},
                          {"region", s % 2 ? "us-west1" : "us-east1"}};
    for (int h = 0; h < 100; ++h) db.write("m", tags, hour_stamp{h}, h);
  }
  tag_filter filter;
  filter.required["region"] = "us-west1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query("m", filter).size());
  }
}
BENCHMARK(BM_TsdbQuery);

void BM_CampaignHour(benchmark::State& state) {
  // One simulated campaign hour (the unit every figure bench replays
  // thousands of times), across worker counts and fleet scale 1x/10x.
  // Each configuration deploys its own fleet against its platform's
  // substrate; the hour counter never rewinds so TSDB appends stay
  // time-ordered.
  const int workers = static_cast<int>(state.range(0));
  const int scale = static_cast<int>(state.range(1));
  auto& p = scale > 1 ? scaled_platform() : shared_platform();
  // 64 base US servers; the scaled platform fans each out to its
  // replicas (640 sessions at 10x).
  const std::vector<std::size_t> servers = [&] {
    auto us = p.registry().crawl("US");
    us.resize(std::min<std::size_t>(us.size(), 64));
    return p.registry().with_replicas(us);
  }();

  // One fleet per configuration, shared across the library's calibration
  // reruns: repeated deploys would keep growing the platform (VMs,
  // interned series), silently slowing whichever configs run later.
  static auto* runners =
      new std::map<campaign_bench_key, std::unique_ptr<campaign_runner>>();
  static std::int64_t h = 0;
  const campaign_bench_key key{workers, scale};
  std::unique_ptr<campaign_runner>& slot = (*runners)[key];
  if (!slot) {
    campaign_config cfg;
    cfg.region = "us-east1";
    cfg.label = "bench-hour-" + std::to_string(workers) + "-x" +
                std::to_string(scale);
    cfg.tests_per_vm_hour = 17;  // the paper's VM budget: 4 VMs, 64 servers
    cfg.workers = static_cast<unsigned>(workers);
    slot = std::make_unique<campaign_runner>(&p.cloud(), &p.view(),
                                             &p.registry(), &p.store());
    slot->deploy(cfg, servers);
    // Untimed warm-up: a real replay runs thousands of hours, so the
    // metric is the steady-state hour — after the staging buffers and the
    // TSDB point vectors have reached their working capacity, not the
    // handful of allocation-heavy hours right after deploy.
    for (int i = 0; i < 64; ++i) slot->run_hour(hour_stamp{h++});
  }
  campaign_runner& runner = *slot;

  double ns = 0.0;
  std::int64_t hours = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    runner.run_hour(hour_stamp{h++});
    const auto end = std::chrono::steady_clock::now();
    ns += std::chrono::duration<double, std::nano>(end - begin).count();
    ++hours;
  }
  campaign_bench_total& total = campaign_totals()[key];
  total.ns += ns;
  total.hours += hours;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(servers.size()));
  state.SetLabel(std::to_string(runner.vm_count()) + " VMs, " +
                 std::to_string(runner.workers()) + " workers, x" +
                 std::to_string(scale));
}
BENCHMARK(BM_CampaignHour)->Apply([](benchmark::internal::Benchmark* b) {
  // {workers, fleet_scale}
  b->Args({1, 1});
  b->Args({2, 1});
  b->Args({4, 1});
  b->Args({1, 10});
  // Full hardware concurrency, unless that duplicates a config above
  // (e.g. the 1-CPU bench container, where it would re-run {1, 1}
  // against a by-then much larger store and skew the per-config
  // averages).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) b->Args({hw, 1});
  b->Unit(benchmark::kMillisecond)->UseRealTime();
});

// (fleet_scale, batch) -> accumulated path-metrics production time, for
// BENCH_campaign.json's speedup_at_10x.
using link_bench_key = std::pair<int, int>;
std::map<link_bench_key, campaign_bench_total>& link_eval_totals() {
  static auto* totals = new std::map<link_bench_key, campaign_bench_total>();
  return *totals;
}

void BM_LinkHourEval(benchmark::State& state) {
  // The tentpole fast path in isolation: producing every session path's
  // metrics for one hour at fleet scale. legacy = per-session
  // network_view::evaluate(flat_path) with per-hop condition
  // computation, the per-session path staging used before the arena
  // sweep; batch = one hour-epoch
  // prefill of the shared condition cache plus one blocked sweep over
  // the path arena. The two produce bit-identical metrics (asserted by
  // netsim's NetworkBatch tests); this measures only the time. At 10x
  // fleet the replicas share their base servers' links, so the legacy
  // path recomputes every shared link condition per crossing session
  // while the batch path computes each distinct (link, dir) once.
  const int scale = static_cast<int>(state.range(0));
  const bool batch = state.range(1) != 0;
  auto& p = scale > 1 ? scaled_platform() : shared_platform();

  struct fixture {
    network_view view;
    std::vector<speed_test_session> sessions;
    path_arena arena;
    std::vector<path_metrics> out;
    fixture(clasp_platform& plat, bool batched) : view(&plat.net()) {
      auto us = plat.registry().crawl("US");
      us.resize(std::min<std::size_t>(us.size(), 64));
      const auto servers = plat.registry().with_replicas(us);
      const auto vm =
          plat.cloud().create_vm("us-east1", service_tier::premium);
      sessions.reserve(servers.size());
      for (const std::size_t id : servers) {
        sessions.emplace_back(&plat.cloud(), &view, vm,
                              plat.registry().server(id));
      }
      if (batched) {
        for (const auto& s : sessions) {
          view.link_cache().register_path(s.download_path());
          view.link_cache().register_path(s.upload_path());
          arena.add(s.flat_download_path());
          arena.add(s.flat_upload_path());
        }
        arena.resolve(view.link_cache());
        out.resize(arena.size());
      }
    }
  };
  // One fixture per config, reused across the library's calibration
  // reruns. Each owns its view — and therefore its condition cache — so
  // registrations here never perturb BM_CampaignHour's prefill set.
  static auto* fixtures =
      new std::map<link_bench_key, std::unique_ptr<fixture>>();
  static std::int64_t h = 0;
  const link_bench_key key{scale, batch ? 1 : 0};
  std::unique_ptr<fixture>& slot = (*fixtures)[key];
  if (!slot) slot = std::make_unique<fixture>(p, batch);
  fixture& fx = *slot;

  double ns = 0.0;
  std::int64_t hours = 0;
  for (auto _ : state) {
    const hour_stamp at{h++};
    const auto begin = std::chrono::steady_clock::now();
    if (batch) {
      fx.view.link_cache().prefill(at);
      fx.view.evaluate_batch(fx.arena, at, 0, fx.arena.size(),
                             fx.out.data());
      benchmark::DoNotOptimize(fx.out.front().rtt.value);
    } else {
      double sink = 0.0;
      for (const speed_test_session& s : fx.sessions) {
        sink += fx.view.evaluate(s.flat_download_path(), at).rtt.value;
        sink += fx.view.evaluate(s.flat_upload_path(), at).rtt.value;
      }
      benchmark::DoNotOptimize(sink);
    }
    const auto end = std::chrono::steady_clock::now();
    ns += std::chrono::duration<double, std::nano>(end - begin).count();
    ++hours;
  }
  campaign_bench_total& total = link_eval_totals()[key];
  total.ns += ns;
  total.hours += hours;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.sessions.size()));
  state.SetLabel(std::to_string(fx.sessions.size()) + " sessions, x" +
                 std::to_string(scale) + (batch ? ", batch" : ", legacy"));
}
BENCHMARK(BM_LinkHourEval)->Apply([](benchmark::internal::Benchmark* b) {
  // {fleet_scale, batch}
  b->Args({1, 0});
  b->Args({1, 1});
  b->Args({10, 0});
  b->Args({10, 1});
  b->Unit(benchmark::kMicrosecond)->UseRealTime();
});

void BM_DailyVariability(benchmark::State& state) {
  ts_series s("m", {});
  for (int i = 0; i < 24 * 153; ++i) {
    s.append(hour_stamp{i}, 400.0 + (i % 24) * 5.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(daily_variability(s, timezone_offset{-5}).size());
  }
}
BENCHMARK(BM_DailyVariability);

// BENCH_campaign.json: [{workers, fleet_scale, ns_per_hour}, ...], the
// serial 1x ns/hour (ns_per_hour_1x, the soft perf gate's input),
// BM_LinkHourEval's per-config runs and speedup_at_10x — its batched
// arena sweep vs per-session evaluate calls for the hour's path-metrics
// production at 10x fleet.
void write_campaign_json(const char* path) {
  const auto& totals = campaign_totals();
  if (totals.empty()) return;  // BM_CampaignHour filtered out of the run
  const auto ns_per_hour = [&](const campaign_bench_key& key) {
    const auto it = totals.find(key);
    if (it == totals.end() || it->second.hours == 0) return 0.0;
    return it->second.ns / static_cast<double>(it->second.hours);
  };
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"BM_CampaignHour\",\n  \"runs\": [\n");
  bool first = true;
  for (const auto& [key, total] : totals) {
    if (total.hours == 0) continue;
    std::fprintf(f,
                 "%s    {\"workers\": %d, \"fleet_scale\": %d, "
                 "\"ns_per_hour\": %.1f, \"hours\": %lld}",
                 first ? "" : ",\n", key.first, key.second,
                 total.ns / static_cast<double>(total.hours),
                 static_cast<long long>(total.hours));
    first = false;
  }
  std::fprintf(f, "\n  ]");
  // BM_LinkHourEval's per-config ns/hour (path-metrics production only).
  const auto& link_totals = link_eval_totals();
  const auto link_ns_per_hour = [&](const link_bench_key& key) {
    const auto it = link_totals.find(key);
    if (it == link_totals.end() || it->second.hours == 0) return 0.0;
    return it->second.ns / static_cast<double>(it->second.hours);
  };
  if (!link_totals.empty()) {
    std::fprintf(f, ",\n  \"link_eval_runs\": [\n");
    first = true;
    for (const auto& [key, total] : link_totals) {
      if (total.hours == 0) continue;
      std::fprintf(f,
                   "%s    {\"fleet_scale\": %d, \"batch\": %s, "
                   "\"ns_per_hour\": %.1f, \"hours\": %lld}",
                   first ? "" : ",\n", key.first,
                   key.second != 0 ? "true" : "false",
                   total.ns / static_cast<double>(total.hours),
                   static_cast<long long>(total.hours));
      first = false;
    }
    std::fprintf(f, "\n  ]");
  }
  // The soft perf gate's input: serial ns/hour at 1x.
  const double one_x = ns_per_hour({1, 1});
  if (one_x > 0.0) {
    std::fprintf(f, ",\n  \"ns_per_hour_1x\": %.1f", one_x);
  }
  // 10x fleet, the hour's path-metrics production: batched arena sweep
  // (prefill + blocked evaluate) vs the pre-refactor per-session
  // evaluate calls. This is the operation the refactor replaces.
  const double link_legacy_10x = link_ns_per_hour({10, 0});
  const double link_batched_10x = link_ns_per_hour({10, 1});
  if (link_legacy_10x > 0.0 && link_batched_10x > 0.0) {
    std::fprintf(f, ",\n  \"speedup_at_10x\": %.3f",
                 link_legacy_10x / link_batched_10x);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

// --obs-overhead: A/B harness for the observability subsystem's cost.
// The same deployed fleet replays interleaved blocks of hours with
// metrics off and on (counters, spans, hour histogram — everything the
// campaign records); per-mode cost is the best round, which shrugs off
// scheduler noise the way the worst-case mean cannot. Emits
// BENCH_obs.json with the overhead percentage, a within_budget verdict
// against the 2% target, and the condition-cache hit ratio observed by
// the counters themselves.
int run_obs_overhead_bench() {
  auto& p = shared_platform();
  auto servers = p.registry().crawl("US");
  servers.resize(std::min<std::size_t>(servers.size(), 64));

  campaign_config cfg;
  cfg.region = "us-east1";
  cfg.label = "bench-obs";
  cfg.tests_per_vm_hour = 17;
  cfg.workers = 1;  // serial replay: the least noisy hour to time
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  runner.deploy(cfg, servers);

  obs::set_enabled(false);
  obs::register_core_families();
  obs::metrics_registry::instance().reset_values();

  std::int64_t h = 0;
  // Untimed warm-up, as in BM_CampaignHour: the metric is the
  // steady-state hour, not the allocation-heavy ramp after deploy.
  for (int i = 0; i < 64; ++i) runner.run_hour(hour_stamp{h++});

  constexpr int kRounds = 12;
  constexpr int kHoursPerBlock = 32;
  const auto time_block = [&] {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kHoursPerBlock; ++i) runner.run_hour(hour_stamp{h++});
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - begin).count() /
           kHoursPerBlock;
  };

  // Paired rounds: each round times an off block and an on block back to
  // back, so drift (TSDB vector reallocation spikes, frequency scaling)
  // hits both sides alike; the median across rounds is the verdict, which
  // single outlier blocks cannot move.
  std::vector<double> per_round_pct;
  double best_off = 0.0, best_on = 0.0, sum_off = 0.0, sum_on = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    obs::set_enabled(false);
    const double off = time_block();
    obs::set_enabled(true);
    const double on = time_block();
    per_round_pct.push_back((on - off) / off * 100.0);
    if (round == 0 || off < best_off) best_off = off;
    if (round == 0 || on < best_on) best_on = on;
    sum_off += off;
    sum_on += on;
  }
  obs::set_enabled(false);
  std::sort(per_round_pct.begin(), per_round_pct.end());
  const double median_pct =
      (per_round_pct[kRounds / 2 - 1] + per_round_pct[kRounds / 2]) / 2.0;

  const auto counters = obs::metrics_registry::instance().counters();
  const double hits =
      static_cast<double>(counters.at(obs::family::kCacheHits));
  const double misses =
      static_cast<double>(counters.at(obs::family::kCacheMisses));
  const double hit_ratio =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double overhead_pct = median_pct;

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write BENCH_obs.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"obs_overhead\",\n"
               "  \"hours_per_mode\": %d,\n"
               "  \"ns_per_hour_off\": %.1f,\n"
               "  \"ns_per_hour_on\": %.1f,\n"
               "  \"mean_ns_per_hour_off\": %.1f,\n"
               "  \"mean_ns_per_hour_on\": %.1f,\n"
               "  \"overhead_pct\": %.3f,\n"
               "  \"within_budget\": %s,\n"
               "  \"cache_hit_ratio\": %.4f\n"
               "}\n",
               kRounds * kHoursPerBlock, best_off, best_on,
               sum_off / kRounds, sum_on / kRounds, overhead_pct,
               overhead_pct < 2.0 ? "true" : "false", hit_ratio);
  std::fclose(f);
  std::printf("obs overhead: %.3f%% (off %.0f ns/hour, on %.0f ns/hour), "
              "cache hit ratio %.4f\n",
              overhead_pct, best_off, best_on, hit_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flag before google-benchmark sees it (it rejects unknowns).
  bool obs_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--obs-overhead") {
      obs_overhead = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (obs_overhead) return run_obs_overhead_bench();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_campaign_json("BENCH_campaign.json");
  return 0;
}
