// replay_bench: times CLASP campaign replay per simulated campaign-day.
//
//   replay_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--expect DIGEST]
//
// One run repeats cycles of (set up the world, replay the workload's
// window, hash the output) until the next cycle would overrun --seconds.
// The first cycle's finished world is kept for the Fig. 2 analysis, and
// each later simulated day ends with one region's analysis on it. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 each cycle
// replays the window several ways (untraced, traced through public
// per-layer calls, resumed from the traced replay's checkpoint, forked
// across shard workers) and reports per-layer metrics. Every replay is
// one operation: it fails when it throws or when its output digest
// differs from --expect (if given) or from the run's first digest.
//
// The last line of stdout is one JSON object; run.py reformats it. See
// README.md for why the gating timings are low quantiles over hours.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clasp/analysis.hpp"
#include "clasp/checkpoint.hpp"
#include "clasp/platform.hpp"
#include "dist/coordinator.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/binio.hpp"

namespace {

using namespace clasp;
namespace fs = std::filesystem;
using staging = campaign_runner::vm_hour_staging;

// --- clocks and process counters -------------------------------------------

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double timespec_ms(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return timespec_ms(ts);
}

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

// CPU time of reaped child processes (the forked shard workers).
double children_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
}

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// VmHWM of this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

template <class F>
double timed_ms(F&& f) {
  const double t0 = wall_ms();
  f();
  return wall_ms() - t0;
}

// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// --- workloads -------------------------------------------------------------

// Why each workload exists is in README.md.
struct workload {
  std::string name;
  std::vector<std::string> regions;
  std::size_t fleet_scale{1};
  bool faults{false};
  bool durable{false};
  // > 1: traced runs also replay through dist::shard_coordinator with
  // this many forked workers, and time the shard path in process.
  std::size_t shards{1};
  int days{1};  // window length from the May 2020 window start
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> kWorkloads = {
      {"paper_6region",
       {"us-west1", "us-west2", "us-west4", "us-east1", "us-east4",
        "us-central1"},
       1, false, false, 1, 153},
      {"fleet10x_durable", {"us-east1"}, 10, true, true, 2, 14},
  };
  return kWorkloads;
}

constexpr int kExtraSetups = 2;
// Low quantile of each hour slot's times across the run's days, and of
// each region's analyses. The host's speed changes within a second, and
// an hour or one region's analysis is short enough to fall inside its
// fast moments (see README.md).
constexpr double kLowQuantile = 0.02;

struct options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string work_dir;
  std::string expect;
};

// --- world -----------------------------------------------------------------

struct world {
  std::unique_ptr<clasp_platform> platform;
  std::vector<campaign_runner*> runners;
  hour_stamp begin{hour_stamp{0}};
  int days{0};

  std::size_t hours() const { return static_cast<std::size_t>(days) * 24; }
  hour_stamp day_end(int d) const { return begin + 24 * (d + 1); }
};

std::string checkpoint_root(const options& o) { return o.work_dir + "/ckpt"; }

// World generation, server selection and fleet deployment.
world set_up(const workload& w, const options& o) {
  platform_config cfg;
  cfg.internet.seed = o.seed;
  cfg.fleet_scale = w.fleet_scale;
  if (w.faults) cfg.campaign_faults = fault_config::preset("low");
  if (w.durable) {
    cfg.campaign_checkpoint_dir = checkpoint_root(o);
    cfg.campaign_checkpoint_every_hours = 24;
  }
  world out;
  out.platform = std::make_unique<clasp_platform>(cfg);
  out.begin = topology_campaign_window().begin_at;
  out.days = w.days;
  const hour_range window{out.begin, out.begin + 24 * w.days};
  for (const std::string& region : w.regions) {
    out.runners.push_back(
        &out.platform->start_topology_campaign(region, window));
  }
  return out;
}

// --- output digest ---------------------------------------------------------

// Hashes the bytes written to it: CRC-32 of each 1 MiB block, folded
// into one 64-bit value. Block boundaries depend only on the stream, so
// equal streams hash equal, without holding the full-window CSV export
// (about a gigabyte for paper_6region) in memory.
class digest_buf : public std::streambuf {
 public:
  digest_buf() : block_(std::size_t{1} << 20) { reset_area(); }
  std::uint64_t finish() {
    fold();
    return digest_;
  }

 protected:
  int_type overflow(int_type ch) override {
    fold();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  void reset_area() { setp(block_.data(), block_.data() + block_.size()); }
  void fold() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    if (n == 0) return;
    digest_ = (digest_ ^ crc32(std::string_view(pbase(), n))) *
              0x100000001b3ull;
    reset_area();
  }

  std::vector<char> block_;
  std::uint64_t digest_{0xcbf29ce484222325ull};
};

const char* kMetrics[] = {"download_mbps", "upload_mbps", "latency_ms",
                          "download_loss", "upload_loss", "gt_episode",
                          "test_status"};

std::string hex64(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

// Everything the replay produced, as bench/bench_dist.cpp hashes it:
// the CSV export of all seven metrics, the cost report, and each
// campaign's tests_run/tests_missed. The export formats every point
// through iostreams (about 14 s for paper_6region), so only traced runs
// compute it, once; content_digest checks every replay.
std::string csv_digest(world& w) {
  digest_buf buf;
  std::ostream all(&buf);
  for (const char* metric : kMetrics) {
    w.platform->store().export_csv(all, metric);
  }
  const cost_report costs = w.platform->cloud().costs();
  all << costs.vm_usd << '|' << costs.egress_usd << '|' << costs.storage_usd;
  for (const campaign_runner* r : w.runners) {
    all << '|' << r->tests_run() << '|' << r->tests_missed();
  }
  all.flush();
  return hex64(buf.finish());
}

// The same output read from the store directly: every series' tags and
// points of the seven metrics, values and costs as IEEE-754 bit
// patterns, and the test counts. Exact where the CSV rounds to six
// digits, and fast enough to run after every replay.
std::string content_digest(world& w) {
  digest_buf buf;
  std::ostream all(&buf);
  const auto put = [&all](const auto& v) {
    all.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const char* metric : kMetrics) {
    all << metric << '\n';
    for (const ts_series* s : w.platform->store().query(metric)) {
      for (const auto& [k, v] : s->tags()) all << k << '=' << v << '\n';
      for (const ts_point& p : s->points()) {
        put(p.at.hours_since_epoch());
        put(p.value);
      }
    }
  }
  const cost_report costs = w.platform->cloud().costs();
  put(costs.vm_usd);
  put(costs.egress_usd);
  put(costs.storage_usd);
  for (const campaign_runner* r : w.runners) {
    put(r->tests_run());
    put(r->tests_missed());
  }
  all.flush();
  return hex64(buf.finish());
}

// Fig. 2 for one region: the congestion-threshold sweep and elbow over
// its download series. Returns a hash of the results.
std::uint32_t run_analysis(world& w, const std::string& region) {
  std::ostringstream out;
  out.precision(17);
  const auto data = w.platform->download_series("topology", region);
  const threshold_sweep sweep = sweep_thresholds(data.series, data.tz);
  out << region << ':' << choose_threshold_elbow(sweep);
  for (std::size_t i = 0; i < sweep.thresholds.size(); ++i) {
    out << ',' << sweep.day_fraction[i] << ',' << sweep.hour_fraction[i];
  }
  return crc32(out.str());
}

// --- replays ---------------------------------------------------------------

// Samples indexed by slot, a (campaign, hour of day) pair.
using slot_samples = std::vector<std::vector<double>>;

void add_sample(slot_samples& s, std::size_t slot, double v) {
  if (slot >= s.size()) s.resize(slot + 1);
  s[slot].push_back(v);
}

// The sum over slots of each slot's q-quantile. Over hour slots this
// builds a simulated day from its hours, each taken across the run's days.
double sum_of_quantiles(const slot_samples& s, double q) {
  double t = 0.0;
  for (const std::vector<double>& v : s) t += quantile(v, q);
  return t;
}

std::size_t min_samples(const slot_samples& s) {
  std::size_t n = s.empty() ? 0 : s.front().size();
  for (const std::vector<double>& v : s) n = std::min(n, v.size());
  return n;
}

// Timings of untraced replays: whole simulated days, and each
// campaign-hour by slot.
struct day_times {
  std::vector<double> wall_ms;
  slot_samples hour_wall_ms;
  slot_samples hour_cpu_ms;
};

// Untraced in-process replay: each simulated day runs every campaign
// through the day's hours with run_until, one hour per call (durable
// campaigns checkpoint inside the call that ends the day), then run()
// bills storage and publishes the final checkpoint. after_day(d), when
// given, runs after day d, outside its timings.
void replay_in_process(world& w, day_times& out,
                       const std::function<void(int)>& after_day = {}) {
  for (int d = 0; d < w.days; ++d) {
    const double day0 = wall_ms();
    for (std::size_t c = 0; c < w.runners.size(); ++c) {
      for (int i = 0; i < 24; ++i) {
        const double t0 = wall_ms();
        const double c0 = cpu_ms();
        w.runners[c]->run_until(w.begin + 24 * d + i + 1);
        const std::size_t slot = c * 24 + static_cast<std::size_t>(i);
        add_sample(out.hour_cpu_ms, slot, cpu_ms() - c0);
        add_sample(out.hour_wall_ms, slot, wall_ms() - t0);
      }
    }
    out.wall_ms.push_back(wall_ms() - day0);
    if (after_day) after_day(d);
  }
  for (campaign_runner* r : w.runners) r->run();
}

struct fork_stats {
  std::vector<double> hour_cpu_ms;   // coordinator CPU per barrier hour
  std::vector<double> hour_wait_ms;  // coordinator wall minus CPU
  dist::dist_report report;
  double worker_cpu_ms{0};
};

// Forked replay: one shard_coordinator run over the whole window. Hour
// boundaries come from wall/CPU stamps at the top of each hour barrier
// (the coordinator's only per-hour hook); the last hour ends when run()
// returns, after the final bill and checkpoint.
void replay_forked(world& w, const workload& spec, fork_stats& stats) {
  campaign_runner& r = *w.runners.front();
  struct stamp {
    double wall;
    double cpu;
  };
  std::vector<stamp> stamps;
  stamps.reserve(w.hours() + 1);
  dist::dist_config dc;
  dc.shards = spec.shards;
  dc.on_barrier_for_testing = [&stamps](dist::shard_coordinator&,
                                        hour_stamp) {
    stamps.push_back({wall_ms(), cpu_ms()});
  };
  const double child0 = children_cpu_ms();
  {
    dist::shard_coordinator coordinator(r, dc);
    coordinator.run();
    stamps.push_back({wall_ms(), cpu_ms()});
    stats.report = coordinator.report();
  }
  stats.worker_cpu_ms += children_cpu_ms() - child0;
  if (stamps.size() != w.hours() + 1) {
    throw std::runtime_error("forked replay: expected one barrier per hour");
  }
  for (std::size_t h = 0; h < w.hours(); ++h) {
    const double wall = stamps[h + 1].wall - stamps[h].wall;
    const double cpu = stamps[h + 1].cpu - stamps[h].cpu;
    stats.hour_cpu_ms.push_back(cpu);
    stats.hour_wait_ms.push_back(std::max(0.0, wall - cpu));
  }
}

// Per-layer times of traced replays, in ms. Per-hour vectors are indexed
// by hour of the window and sum every campaign of the workload; each
// traced replay appends one window's worth.
struct layer_trace {
  std::vector<double> begin_hour, prefill, evaluate, stage, commit,
      wal_encode, commit_group, stage_shard, codec;
  std::vector<double> checkpoint_ms_per_mb;
  std::vector<double> day_ms;
  std::vector<double> resume_ms;
  double checkpoint_ms{0};
  double checkpoint_mb_max{0};
  double tests{0};
  double points{0};
  double wal_bytes{0};
  double hours{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};

  void add_hours(std::size_t n) {
    for (std::vector<double>* v :
         {&begin_hour, &prefill, &evaluate, &stage, &commit, &wal_encode,
          &commit_group, &stage_shard, &codec}) {
      v->resize(v->size() + n, 0.0);
    }
    hours += static_cast<double>(n);
  }
  // Everything timed from outside: the rest of a traced day is the
  // unattributed remainder.
  double attributed_ms() const {
    return sum(begin_hour) + sum(prefill) + sum(evaluate) + sum(stage) +
           sum(commit) + sum(wal_encode) + sum(commit_group) +
           sum(stage_shard) + sum(codec) + checkpoint_ms;
  }
};

std::uintmax_t file_size_or_zero(const fs::path& p) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(p, ec);
  return ec ? 0 : n;
}

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t n = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

// Publish a checkpoint, timing it and sizing what it published.
void traced_checkpoint(campaign_runner& r, layer_trace& lt) {
  const std::string& dir = r.config().checkpoint_dir;
  const double ms = timed_ms([&] { r.checkpoint(dir); });
  const std::optional<std::string> current = current_checkpoint(dir);
  const double mb = current ? static_cast<double>(tree_bytes(*current)) /
                                  (1024.0 * 1024.0)
                            : 0.0;
  lt.checkpoint_ms += ms;
  lt.checkpoint_mb_max = std::max(lt.checkpoint_mb_max, mb);
  if (mb > 0) lt.checkpoint_ms_per_mb.push_back(ms / mb);
}

// The traced hour, driven only through public calls in orders the
// campaign code documents as byte-identical to run_hour:
//
//   not durable (paper_6region): begin_hour, cache prefill,
//     evaluate_hour, stage_vm_hour_into for every slot, then
//     commit_vm_hour in slot order (run_hour's pooled order);
//   durable (fleet10x_durable): the same staging, encode_wal_record over
//     the slots (timed on the side), the shard path on the side (see
//     shard_path), then commit_hour_group, which WAL-logs and commits the
//     group, then checkpoint() on run_until's cadence. commit_hour_group
//     repeats begin_hour, which is idempotent (preempt/redeploy/retire
//     skip VMs and servers already in that state).
class traced_replay {
 public:
  traced_replay(world& w, const workload& spec, layer_trace& lt)
      : w_(w), spec_(spec), lt_(lt), base_(lt.begin_hour.size()) {
    lt_.add_hours(w.hours());
  }

  void run() {
    for (int d = 0; d < w_.days; ++d) {
      const double t0 = wall_ms();
      for (campaign_runner* r : w_.runners) {
        // run_until's first-hour anchor: the WAL needs a base snapshot.
        if (r->durable() && !r->wal_open()) traced_checkpoint(*r, lt_);
        for (int i = 0; i < 24; ++i) {
          const hour_stamp at = w_.begin + 24 * d + i;
          staged_hour(*r, at, base_ + static_cast<std::size_t>(24 * d + i));
        }
      }
      lt_.day_ms.push_back(wall_ms() - t0);
    }
    // What run() does after the window, outside the timed days as in
    // the untraced replay: bill storage once, publish a final checkpoint.
    for (campaign_runner* r : w_.runners) {
      if (!r->storage_billed()) r->charge_monthly_storage();
      if (r->durable()) r->checkpoint(r->config().checkpoint_dir);
    }
  }

 private:
  void staged_hour(campaign_runner& r, hour_stamp at, std::size_t h) {
    const std::size_t n = r.vm_count();
    slots_.resize(n);
    lt_.begin_hour[h] += timed_ms([&] { r.begin_hour(at); });
    lt_.prefill[h] += timed_ms(
        [&] { w_.platform->view().link_cache().prefill(at, nullptr); });
    lt_.evaluate[h] += timed_ms([&] { r.evaluate_hour(at); });
    lt_.stage[h] += timed_ms([&] {
      for (std::size_t v = 0; v < n; ++v) {
        r.stage_vm_hour_into(v, at, slots_[v]);
      }
    });
    count(slots_);
    if (!r.durable()) {
      lt_.commit[h] += timed_ms([&] {
        for (std::size_t v = 0; v < n; ++v) {
          r.commit_vm_hour(v, std::move(slots_[v]));
        }
      });
      return;
    }
    records_.resize(n);
    lt_.wal_encode[h] += timed_ms([&] {
      for (std::size_t v = 0; v < n; ++v) {
        records_[v] = r.encode_wal_record(v, slots_[v]);
      }
    });
    if (spec_.shards > 1) shard_path(r, at, h);
    const fs::path wal = fs::path(r.config().checkpoint_dir) / "wal.log";
    const std::uintmax_t wal_before = file_size_or_zero(wal);
    // commit_hour_group moves out of the records, not the vector: slots_
    // keeps its size and buffers for the next hour's staging.
    lt_.commit_group[h] +=
        timed_ms([&] { r.commit_hour_group(at, std::move(slots_)); });
    lt_.wal_bytes +=
        static_cast<double>(file_size_or_zero(wal) - wal_before);
    if ((r.cursor() - w_.begin) % 24 == 0) traced_checkpoint(r, lt_);
  }

  // The shard workers' side of the hour, in process and on the side:
  // stage_shard_hour on each shard's slot range (the coordinator's
  // contiguous partition, remainder on the low shards), then the wire
  // codec, encode and decode of every record. Every shard record must
  // encode to the same bytes as the slot staged above; the committed
  // group stays the one staged above.
  void shard_path(campaign_runner& r, hour_stamp at, std::size_t h) {
    const std::size_t n = r.vm_count();
    const std::size_t shards = std::min(spec_.shards, n);
    shard_out_.resize(shards);
    std::size_t next = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t len = n / shards + (s < n % shards ? 1 : 0);
      const std::size_t b = next;
      next += len;
      lt_.stage_shard[h] += timed_ms(
          [&] { r.stage_shard_hour(at, b, next, shard_out_[s]); });
      bool same = true;
      lt_.codec[h] += timed_ms([&] {
        for (std::size_t i = 0; i < len; ++i) {
          record_ = r.encode_wal_record(b + i, shard_out_[s][i]);
          same = same && record_ == records_[b + i];
          if (r.decode_wal_record(record_, decoded_) != b + i) same = false;
        }
      });
      if (!same) {
        throw std::runtime_error("shard path staged different records");
      }
    }
  }

  void count(const std::vector<staging>& group) {
    for (const staging& s : group) {
      lt_.tests += static_cast<double>(s.tests_run);
      lt_.points += static_cast<double>(s.points.size());
    }
  }

  world& w_;
  const workload& spec_;
  layer_trace& lt_;
  std::size_t base_;
  std::vector<staging> slots_;
  std::vector<std::vector<staging>> shard_out_;
  std::vector<std::string> records_;
  std::string record_;
  staging decoded_;
};

// --- one benchmark run -----------------------------------------------------

struct run_state {
  std::size_t attempted{0};
  std::size_t failed{0};
  bool with_csv{false};  // traced runs also hash the CSV export
  std::string expect;    // --expect
  std::string digest;    // the run's digest (see operation)
  std::string content;   // content digest of the first replay
  std::vector<double> setup_s;
  day_times days;            // untraced replays (end-to-end)
  // The first untraced replay's finished world, which the analysis reads.
  std::optional<world> analysed;
  slot_samples analysis_ms;  // by region
  std::vector<std::uint32_t> analysis_hash;
  // --trace 1 only
  layer_trace layers;
  fork_stats forked;
  double worker_rss_mb{0};
};

// Run one replay as an operation. It fails when it throws, when its
// content digest differs from the run's first replay, or when the run's
// digest differs from --expect. The run's digest is the first replay's
// content digest, prefixed in traced runs by its CSV digest.
void operation(run_state& st, const char* what, world& w,
               const std::function<void()>& replay) {
  ++st.attempted;
  try {
    replay();
    const std::string content = content_digest(w);
    if (st.digest.empty()) {
      st.digest = st.with_csv ? csv_digest(w) + "-" + content : content;
      if (!st.expect.empty() && st.digest != st.expect) {
        ++st.failed;
        std::fprintf(stderr, "[replay_bench] %s digest %s, expected %s\n",
                     what, st.digest.c_str(), st.expect.c_str());
      }
      st.content = content;
    } else if (content != st.content) {
      ++st.failed;
      std::fprintf(stderr, "[replay_bench] %s content digest %s != %s\n",
                   what, content.c_str(), st.content.c_str());
    }
  } catch (const std::exception& e) {
    ++st.failed;
    std::fprintf(stderr, "[replay_bench] %s threw: %s\n", what, e.what());
  }
}

world timed_set_up(const workload& spec, const options& o, run_state& st,
                   bool fresh_checkpoints = true) {
  if (spec.durable && fresh_checkpoints) fs::remove_all(checkpoint_root(o));
  const double t0 = wall_ms();
  world w = set_up(spec, o);
  st.setup_s.push_back((wall_ms() - t0) / 1e3);
  return w;
}

// One timed analysis of region r on the kept world. Its result must not
// change within the run.
void analyse(const workload& spec, std::size_t r, run_state& st) {
  std::uint32_t hash = 0;
  add_sample(st.analysis_ms, r, timed_ms([&] {
    hash = run_analysis(*st.analysed, spec.regions[r]);
  }));
  if (st.analysis_ms[r].size() == 1) {
    st.analysis_hash[r] = hash;
  } else if (hash != st.analysis_hash[r]) {
    ++st.failed;
    std::fprintf(stderr, "[replay_bench] analysis of %s changed\n",
                 spec.regions[r].c_str());
  }
}

// End-to-end cycle: set up, replay untraced, hash. Each simulated day
// ends with the analysis of one region, the regions taken in turn. The
// analyses spread over the whole run, so their low quantile finds the
// host's fast moments as the hour slots do; run back to back they fall
// into a few seconds that may all be slow. Until the first replay ends
// there is no finished world, and its days analyse the world being
// replayed, untimed, so that every replayed day is followed by the same
// work.
void untraced_cycle(const workload& spec, const options& o, run_state& st) {
  world w = timed_set_up(spec, o, st);
  const std::size_t regions = spec.regions.size();
  operation(st, "replay", w, [&] {
    replay_in_process(w, st.days, [&](int d) {
      const std::size_t r = static_cast<std::size_t>(d) % regions;
      if (st.analysed) {
        analyse(spec, r, st);
      } else {
        run_analysis(w, spec.regions[r]);
      }
    });
  });
  if (!st.analysed) {
    st.analysed.emplace(std::move(w));
    st.analysis_hash.resize(regions, 0);
    for (std::size_t r = 0; r < regions; ++r) analyse(spec, r, st);
  }
}

// Traced cycle: an untraced in-process replay (the reference for the
// digest and for trace overhead), a traced replay, for durable workloads
// a resume of the traced replay's final checkpoint into a fresh runner,
// and with shards > 1 a forked replay.
void traced_cycle(const workload& spec, const options& o, run_state& st) {
  {
    world w = timed_set_up(spec, o, st);
    operation(st, "in-process replay", w,
              [&] { replay_in_process(w, st.days); });
  }
  {
    world w = timed_set_up(spec, o, st);
    obs::metrics_registry& reg = obs::metrics_registry::instance();
    obs::counter& hits = reg.get_counter(obs::family::kCacheHits);
    obs::counter& misses = reg.get_counter(obs::family::kCacheMisses);
    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    obs::set_enabled(true);
    operation(st, "traced replay", w,
              [&] { traced_replay(w, spec, st.layers).run(); });
    obs::set_enabled(false);
    st.layers.cache_hits += hits.value() - h0;
    st.layers.cache_misses += misses.value() - m0;
  }
  if (spec.durable) {
    world w = timed_set_up(spec, o, st, /*fresh_checkpoints=*/false);
    operation(st, "resume", w, [&] {
      for (campaign_runner* r : w.runners) {
        const std::string dir = r->config().checkpoint_dir;
        bool resumed = false;
        st.layers.resume_ms.push_back(
            timed_ms([&] { resumed = r->resume(dir); }));
        if (!resumed) throw std::runtime_error("no checkpoint to resume");
      }
    });
  }
  if (spec.shards > 1) {
    world w = timed_set_up(spec, o, st);
    operation(st, "forked replay", w,
              [&] { replay_forked(w, spec, st.forked); });
    st.worker_rss_mb = children_peak_rss_mb();
  }
}

// --- output ----------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<metric> end_to_end(const run_state& st) {
  return {
      {"setup_s", quantile(st.setup_s, 0.5), "s", st.setup_s.size()},
      {"day_ms_hour_p2",
       sum_of_quantiles(st.days.hour_wall_ms, kLowQuantile), "ms",
       min_samples(st.days.hour_wall_ms)},
      {"cpu_ms_per_day_hour_p2",
       sum_of_quantiles(st.days.hour_cpu_ms, kLowQuantile), "ms",
       min_samples(st.days.hour_cpu_ms)},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"analysis_ms_p2", sum_of_quantiles(st.analysis_ms, kLowQuantile),
       "ms", min_samples(st.analysis_ms)},
  };
}

std::vector<metric> per_layer(const workload& spec, const run_state& st) {
  const layer_trace& lt = st.layers;
  const std::size_t hours = static_cast<std::size_t>(lt.hours);
  const double lookups = static_cast<double>(lt.cache_hits + lt.cache_misses);
  const double traced_day_p10 = quantile(lt.day_ms, 0.1);
  const double untraced_day_p10 = quantile(st.days.wall_ms, 0.1);
  const double traced_total = sum(lt.day_ms);
  const fork_stats& f = st.forked;
  const double fork_hours = static_cast<double>(f.hour_cpu_ms.size());
  const double shards = static_cast<double>(spec.shards);
  return {
      {"netsim.begin_hour_ms_p10", quantile(lt.begin_hour, 0.1), "ms", hours},
      {"netsim.prefill_ms_p10", quantile(lt.prefill, 0.1), "ms", hours},
      {"netsim.evaluate_ms_p10", quantile(lt.evaluate, 0.1), "ms", hours},
      {"netsim.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(lt.cache_hits) / lookups : 0.0,
       "ratio", static_cast<std::size_t>(lookups)},
      {"clasp.stage_ms_p10", quantile(lt.stage, 0.1), "ms", hours},
      {"clasp.stage_us_per_test",
       lt.tests > 0 ? 1e3 * sum(lt.stage) / lt.tests : 0.0, "us",
       static_cast<std::size_t>(lt.tests)},
      {"tsdb.commit_ms_p10", quantile(lt.commit, 0.1), "ms", hours},
      {"tsdb.points_per_hour", lt.hours > 0 ? lt.points / lt.hours : 0.0,
       "count", hours},
      {"tsdb.wal_encode_ms_p10", quantile(lt.wal_encode, 0.1), "ms", hours},
      {"tsdb.wal_bytes_per_hour", lt.hours > 0 ? lt.wal_bytes / lt.hours : 0.0,
       "bytes", hours},
      {"clasp.commit_group_ms_p10", quantile(lt.commit_group, 0.1), "ms",
       hours},
      {"clasp.checkpoint_ms_per_mb_p10", quantile(lt.checkpoint_ms_per_mb, 0.1),
       "ms/MB", lt.checkpoint_ms_per_mb.size()},
      {"clasp.checkpoint_mb_max", lt.checkpoint_mb_max, "MB",
       lt.checkpoint_ms_per_mb.size()},
      {"clasp.resume_ms", quantile(lt.resume_ms, 0.5), "ms",
       lt.resume_ms.size()},
      // Per-hour sum over the shards' stage_shard_hour calls, per shard.
      {"dist.stage_shard_ms_p10", quantile(lt.stage_shard, 0.1) / shards, "ms",
       hours},
      {"dist.codec_ms_p10", quantile(lt.codec, 0.1), "ms", hours},
      {"dist.coord_cpu_ms_p10", quantile(f.hour_cpu_ms, 0.1), "ms",
       f.hour_cpu_ms.size()},
      {"dist.coord_wait_ms_p10", quantile(f.hour_wait_ms, 0.1), "ms",
       f.hour_wait_ms.size()},
      {"dist.worker_cpu_ms_per_hour",
       fork_hours > 0 ? f.worker_cpu_ms / fork_hours / shards : 0.0, "ms",
       f.hour_cpu_ms.size()},
      {"dist.worker_peak_rss_mb", st.worker_rss_mb, "MB", 1},
      {"dist.records_merged", static_cast<double>(f.report.records_merged),
       "count", 1},
      {"dist.resends", static_cast<double>(f.report.resends), "count", 1},
      {"dist.timeouts", static_cast<double>(f.report.timeouts), "count", 1},
      {"dist.failovers", static_cast<double>(f.report.failovers), "count", 1},
      {"replay.day_ms_p50", quantile(st.days.wall_ms, 0.5), "ms",
       st.days.wall_ms.size()},
      {"replay.day_ms_p90", quantile(st.days.wall_ms, 0.9), "ms",
       st.days.wall_ms.size()},
      {"replay.days", static_cast<double>(st.days.wall_ms.size()), "count", 1},
      {"replay.unattributed_pct",
       traced_total > 0 ? 100.0 * (traced_total - lt.attributed_ms()) /
                              traced_total
                        : 0.0,
       "%", lt.day_ms.size()},
      {"trace.overhead_pct",
       untraced_day_p10 > 0
           ? 100.0 * (traced_day_p10 - untraced_day_p10) / untraced_day_p10
           : 0.0,
       "%", lt.day_ms.size()},
  };
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--expect DIGEST]\n",
               msg);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--work-dir") o.work_dir = value;
    else if (flag == "--expect") o.expect = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const workload& w) {
    return w.name == o.workload;
  });
  if (it == all.end()) usage(("unknown workload " + o.workload).c_str());
  const workload& spec = *it;
  fs::create_directories(o.work_dir);

  run_state st;
  st.expect = o.expect;
  st.with_csv = o.trace;
  const double deadline = wall_ms() + o.seconds * 1e3;
  // Set-up time swings by a factor of two between back-to-back builds on
  // a shared host, so an end-to-end run takes the median of several:
  // these discarded set-ups, and two per cycle (the cycle's own and a
  // discarded one after it), which spread the samples over the run.
  if (!o.trace) {
    for (int i = 0; i < kExtraSetups; ++i) timed_set_up(spec, o, st);
  }
  double last_cycle_ms = 0.0;
  std::size_t cycles = 0;
  // Whole cycles only: start another while it is expected to end in time.
  do {
    const double t0 = wall_ms();
    if (o.trace) {
      traced_cycle(spec, o, st);
    } else {
      untraced_cycle(spec, o, st);
      timed_set_up(spec, o, st);
    }
    last_cycle_ms = wall_ms() - t0;
    ++cycles;
    std::fprintf(stderr, "[replay_bench] cycle %zu: %.0f ms\n", cycles,
                 last_cycle_ms);
  } while (st.failed == 0 && wall_ms() + last_cycle_ms <= deadline);

  const std::vector<metric> metrics =
      o.trace ? per_layer(spec, st) : end_to_end(st);
  std::ostringstream out;
  out << "{\"correct\": " << (st.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << st.attempted << ", \"failed\": " << st.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const metric& m = metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << json_number(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << '}';
  }
  // The digest is hex and the compiler version has no quotes or
  // backslashes, so neither needs JSON escaping.
  out << "}, \"digest\": \"" << st.digest << "\", \"cycles\": " << cycles
      << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
