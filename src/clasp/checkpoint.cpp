// Checkpoint/resume implementation: the on-disk format helpers, the
// campaign_runner durability members declared in campaign.hpp and the
// VM-hour record codec of the shard wire, which shares the state
// encoders. Kept out of campaign.cpp so the replay hot path and the
// recovery machinery stay separately readable. Format documentation
// lives in checkpoint.hpp.
#include "clasp/checkpoint.hpp"

#include <fcntl.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "clasp/campaign.hpp"
#include "clasp/swarm.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace clasp {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kManifestMagic = 0x4B434C43u;  // "CLCK" little-endian
constexpr std::uint8_t kVmHourTag = 'V';

std::string checkpoint_name(std::int64_t hours) {
  return "ckpt-" + std::to_string(hours);
}

// Countdown armed by set_checkpoint_write_failures_for_testing. The
// container runs tests as root, so chmod-based fault injection cannot
// make a write fail; this hook simulates ENOSPC at the write site.
int g_write_failures_for_testing = 0;
publish_kill_point g_kill_point_for_testing = publish_kill_point::none;

// Every checkpoint file write passes here first. Failures (ENOSPC, short
// write, an unwritable staging dir, the injected ones) are storage_error:
// the caller aborts the publish and the old checkpoint stays CURRENT.
void inject_write_failure(const fs::path& path) {
  if (g_write_failures_for_testing <= 0) return;
  --g_write_failures_for_testing;
  throw storage_error("checkpoint: injected write failure on " +
                      path.string());
}

void write_checkpoint_file(const fs::path& path, std::string_view payload) {
  inject_write_failure(path);
  write_crc_file(path.string(), payload);
}

void kill_point(publish_kill_point at) {
  if (g_kill_point_for_testing != at) return;
  g_kill_point_for_testing = publish_kill_point::none;
  throw checkpoint_killed_for_testing{at};
}

std::string encode_manifest(const checkpoint_info& info) {
  binary_writer out;
  out.u32(kManifestMagic);
  out.u32(kCheckpointVersion);
  out.u64(info.fingerprint);
  out.svarint(info.cursor_hours);
  out.svarint(info.base_hours);
  return out.take();
}

// A someta summary as it travels: `tests` is carried beside it (each
// VM's count in state.bin, tests_run in a shard record). Throws
// invalid_argument_error, naming `what`, for a summary no run of tests
// can produce.
void check_someta(std::uint64_t tests, std::uint64_t saturated, double peak,
                  const char* what) {
  if (saturated > tests) {
    throw invalid_argument_error(std::string(what) +
                                 ": more saturated tests than tests");
  }
  if (!(peak >= 0.0 && peak <= 1.0)) {
    throw invalid_argument_error(std::string(what) +
                                 ": peak CPU outside [0, 1]");
  }
}

// Whether `attempts` slots can have produced `outcome` in an hour of
// `per_hour` test slots: commit_vm_hour adds attempts - 1 retries for
// the two outcomes that ran a test, so those must have run at least once.
bool attempts_fit(test_outcome outcome, unsigned attempts,
                  unsigned per_hour) {
  switch (outcome) {
    case test_outcome::ok:
      return attempts == 1;
    case test_outcome::ok_after_retry:
      return attempts >= 2 && attempts <= per_hour;
    case test_outcome::failed:
      return attempts >= 1 && attempts <= per_hour;
    case test_outcome::server_withdrawn:
    case test_outcome::vm_down:
    case test_outcome::skipped_budget:
      return attempts == 0;
  }
  return false;
}

}  // namespace

void set_checkpoint_write_failures_for_testing(int count) {
  g_write_failures_for_testing = count;
}

void set_publish_kill_point_for_testing(publish_kill_point point) {
  g_kill_point_for_testing = point;
}

std::string checkpoint_info::base_name() const {
  return checkpoint_name(base_hours);
}

std::optional<std::string> current_checkpoint(const std::string& dir) {
  std::ifstream in(fs::path(dir) / "CURRENT");
  if (!in) return std::nullopt;
  std::string name;
  std::getline(in, name);
  while (!name.empty() &&
         (name.back() == '\r' || name.back() == ' ')) {
    name.pop_back();
  }
  if (name.empty() || !starts_with(name, "ckpt-") ||
      name.find('/') != std::string::npos) {
    throw invalid_argument_error("checkpoint: corrupt CURRENT in " + dir);
  }
  const fs::path target = fs::path(dir) / name;
  if (!fs::exists(target)) {
    throw state_error("checkpoint: CURRENT points at missing " +
                      target.string());
  }
  return target.string();
}

checkpoint_info read_checkpoint_info(const std::string& checkpoint_path) {
  const std::string payload =
      read_crc_file(fs::path(checkpoint_path) / "MANIFEST");
  binary_reader in(payload);
  if (in.u32() != kManifestMagic) {
    throw invalid_argument_error("checkpoint: bad manifest magic");
  }
  checkpoint_info info;
  info.version = in.u32();
  if (info.version != kCheckpointVersion) {
    throw invalid_argument_error("checkpoint: unsupported version " +
                                 std::to_string(info.version));
  }
  info.fingerprint = in.u64();
  info.cursor_hours = in.svarint();
  info.base_hours = in.svarint();
  if (info.base_hours > info.cursor_hours) {
    throw invalid_argument_error("checkpoint: manifest base after its cursor");
  }
  if (!in.done()) {
    throw invalid_argument_error("checkpoint: trailing bytes in manifest");
  }
  return info;
}

std::uint64_t campaign_runner::fingerprint() const {
  // Everything that determines the replay's output: the stream seed
  // already hashes (net seed, label, region); the rest pins the window,
  // the fleet shape and the fault schedule inputs. Serialized through
  // binio so the hash input is unambiguous, then folded with hash_tag.
  binary_writer id;
  id.u64(stream_seed_);
  id.str(config_.label);
  id.str(config_.region);
  id.svarint(config_.window.begin_at.hours_since_epoch());
  id.svarint(config_.window.end_at.hours_since_epoch());
  id.varint(vms_.size());
  id.varint(sessions_.size());
  id.varint(config_.tests_per_vm_hour);
  const fault_config& f = config_.faults;
  id.boolean(f.enabled);
  id.u64(f.seed);
  id.f64(f.server_churn_rate);
  id.f64(f.test_failure_rate);
  id.varint(f.max_retries);
  id.f64(f.vm_preemption_rate);
  id.varint(f.vm_outage_hours_min);
  id.varint(f.vm_outage_hours_max);
  id.f64(f.upload_failure_rate);
  return hash_tag(kCheckpointVersion, id.bytes());
}

void campaign_runner::save_state(binary_writer& out, bool full) const {
  // Full outage windows (plan + manual injections) first: vm_down must
  // answer identically in the resumed process, also while resume
  // re-executes the hours since the base, so resume reads them from the
  // head of a ledger. Serialized per VM slice of the CSR arrays.
  out.varint(vms_.size());
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    out.varint(outage_offsets_[v + 1] - outage_offsets_[v]);
    for (std::uint32_t i = outage_offsets_[v]; i < outage_offsets_[v + 1];
         ++i) {
      out.svarint(outage_windows_[i].begin_at.hours_since_epoch());
      out.svarint(outage_windows_[i].end_at.hours_since_epoch());
    }
  }
  out.varint(tests_run_);
  out.varint(tests_missed_);
  out.varint(upload_failures_);
  out.boolean(storage_billed_);
  if (full) {
    // What re-executing hours rebuilds: the health tallies and each VM's
    // someta summary.
    out.varint(tallies_.size());
    for (const session_tally& t : tallies_) {
      out.varint(t.completed);
      out.varint(t.failed);
      out.varint(t.retries);
      out.varint(t.down_hours);
      out.varint(t.withdrawn_hours);
      out.varint(t.skipped_hours);
    }
    out.varint(someta_.size());
    for (const someta_recorder& rec : someta_) {
      const someta_summary& sum = rec.summary();
      out.varint(sum.tests);
      out.varint(sum.saturated);
      out.f64(sum.peak_cpu);
    }
  }
  cloud_->save_state(out);
  // Pre-test swarm ledgers (v2): presence flag + both ledgers, so a
  // resumed campaign's pre-test accounting cannot double-spend or reset.
  out.boolean(pretest_swarm_ != nullptr);
  if (pretest_swarm_ != nullptr) pretest_swarm_->save_state(out);
}

void campaign_runner::load_outages(binary_reader& in) {
  if (in.varint() != vms_.size()) {
    throw state_error("checkpoint: VM count mismatch (outages)");
  }
  outage_offsets_.assign(vms_.size() + 1, 0);
  outage_windows_.clear();
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const std::size_t count = static_cast<std::size_t>(in.varint());
    for (std::size_t i = 0; i < count; ++i) {
      hour_range w;
      w.begin_at = hour_stamp{in.svarint()};
      w.end_at = hour_stamp{in.svarint()};
      outage_windows_.push_back(w);
    }
    outage_offsets_[v + 1] =
        static_cast<std::uint32_t>(outage_windows_.size());
  }
}

void campaign_runner::load_state(binary_reader& in, bool full) {
  load_outages(in);
  tests_run_ = static_cast<std::size_t>(in.varint());
  tests_missed_ = static_cast<std::size_t>(in.varint());
  upload_failures_ = static_cast<std::size_t>(in.varint());
  storage_billed_ = in.boolean();
  if (full) {
    if (in.varint() != tallies_.size()) {
      throw state_error("checkpoint: session count mismatch");
    }
    for (session_tally& t : tallies_) {
      t.completed = static_cast<std::size_t>(in.varint());
      t.failed = static_cast<std::size_t>(in.varint());
      t.retries = static_cast<std::size_t>(in.varint());
      t.down_hours = static_cast<std::size_t>(in.varint());
      t.withdrawn_hours = static_cast<std::size_t>(in.varint());
      t.skipped_hours = static_cast<std::size_t>(in.varint());
    }
    if (in.varint() != someta_.size()) {
      throw state_error("checkpoint: VM count mismatch (someta)");
    }
    for (someta_recorder& rec : someta_) {
      someta_summary sum;
      sum.tests = static_cast<std::size_t>(in.varint());
      sum.saturated = static_cast<std::size_t>(in.varint());
      sum.peak_cpu = in.f64();
      check_someta(sum.tests, sum.saturated, sum.peak_cpu,
                   "checkpoint: someta summary");
      rec.restore(sum);
    }
  }
  cloud_->load_state(in);
  if (in.boolean()) {
    // Restore into the wired swarm, or parse-and-discard when this
    // process resumes without one (the ledgers then start fresh).
    if (pretest_swarm_ != nullptr) {
      pretest_swarm_->load_state(in);
    } else {
      vantage_swarm::skip_state(in);
    }
  }
}

std::string campaign_runner::encode_wal_record(
    std::size_t vm_slot, const vm_hour_staging& staged) const {
  binary_writer out;
  out.u8(kVmHourTag);
  out.varint(vm_slot);
  out.svarint(staged.at.hours_since_epoch());
  out.varint(staged.points.size());
  for (const staged_point& p : staged.points) {
    out.varint(p.ref);
    out.f64(p.value);
  }
  out.varint(staged.saturated_tests);
  out.f64(staged.peak_cpu);
  out.varint(staged.outcomes.size());
  for (const staged_outcome& o : staged.outcomes) {
    out.varint(o.session);
    out.u8(static_cast<std::uint8_t>(o.outcome));
    out.u8(o.attempts);
  }
  const charge_sheet& c = staged.charges;
  out.varint(c.vm_hours.size());
  for (const std::size_t id : c.vm_hours) out.varint(id);
  out.f64(c.egress_premium.value);
  out.f64(c.egress_standard.value);
  out.varint(c.puts.size());
  for (const charge_sheet::object_put& p : c.puts) {
    out.str(p.bucket_region);
    out.str(p.object_name);
    out.f64(p.megabytes_stored);
  }
  out.varint(staged.tests_run);
  out.varint(staged.tests_missed);
  out.boolean(staged.upload_failed);
  return out.take();
}

std::size_t campaign_runner::decode_wal_record(std::string_view payload,
                                               vm_hour_staging& out) const {
  binary_reader in(payload);
  if (in.u8() != kVmHourTag) {
    throw invalid_argument_error("vm-hour record: bad tag");
  }
  // Records arrive from shard workers' sockets, and commit_vm_hour
  // indexes by what they carry: every count is bounded by the bytes left
  // (minimum encoded item sizes below) and every index by this
  // campaign's shape.
  const auto bad = [](const char* what) {
    throw invalid_argument_error(std::string("vm-hour record ") + what);
  };
  const std::uint64_t vm_slot = in.varint();
  if (vm_slot >= vms_.size()) bad("names a VM slot outside the fleet");
  out.at = hour_stamp{in.svarint()};
  out.points.clear();
  out.outcomes.clear();
  out.charges.reset();
  const std::size_t n_points = in.count(9);  // varint ref + f64
  out.points.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    // Checked before the cast: a ref past 2^32 must not alias a low one.
    const std::uint64_t ref = in.varint();
    if (ref >= point_series_.size() || !point_series_[ref]) {
      bad("names a series outside this campaign");
    }
    out.points.push_back({static_cast<series_ref>(ref), in.f64()});
  }
  const std::uint64_t saturated = in.varint();
  const double peak_cpu = in.f64();
  const std::size_t n_outcomes = in.count(3);  // varint + two bytes
  out.outcomes.reserve(n_outcomes);
  for (std::size_t i = 0; i < n_outcomes; ++i) {
    const std::uint64_t session = in.varint();
    const std::uint8_t outcome = in.u8();
    if (session >= sessions_.size()) bad("names a session outside the fleet");
    if (outcome > static_cast<std::uint8_t>(test_outcome::skipped_budget)) {
      bad("carries an unknown test outcome");
    }
    staged_outcome o;
    o.session = static_cast<std::uint32_t>(session);
    o.outcome = static_cast<test_outcome>(outcome);
    o.attempts = in.u8();
    if (!attempts_fit(o.outcome, o.attempts, config_.tests_per_vm_hour)) {
      bad("carries an attempt count its outcome rules out");
    }
    out.outcomes.push_back(o);
  }
  const std::size_t n_vm_hours = in.count(1);
  out.charges.vm_hours.reserve(n_vm_hours);
  for (std::size_t i = 0; i < n_vm_hours; ++i) {
    const std::uint64_t vm = in.varint();
    if (vm != vms_[vm_slot]) bad("bills a VM-hour of another slot's VM");
    out.charges.vm_hours.push_back(static_cast<std::size_t>(vm));
  }
  out.charges.egress_premium = megabytes{in.f64()};
  out.charges.egress_standard = megabytes{in.f64()};
  const std::size_t n_puts = in.count(10);  // two strings + f64
  for (std::size_t i = 0; i < n_puts; ++i) {
    std::string region = in.str();
    std::string name = in.str();
    out.charges.add_put(std::move(region), std::move(name), in.f64());
  }
  const std::uint64_t tests_run = in.varint();
  check_someta(tests_run, saturated, peak_cpu, "vm-hour record someta");
  out.tests_run = static_cast<std::size_t>(tests_run);
  out.saturated_tests = static_cast<std::size_t>(saturated);
  out.peak_cpu = peak_cpu;
  out.tests_missed = static_cast<std::size_t>(in.varint());
  out.upload_failed = in.boolean();
  if (!in.done()) {
    throw invalid_argument_error("vm-hour record: trailing bytes");
  }
  return static_cast<std::size_t>(vm_slot);
}

void campaign_runner::checkpoint(const std::string& dir) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  if (dir.empty()) {
    throw invalid_argument_error("campaign_runner: empty checkpoint dir");
  }
  const obs::trace_span ckpt_span(obs::phase::checkpoint,
                                  cursor_.hours_since_epoch());
  const bool obs_on = obs::enabled();
  const auto publish_begin =
      obs_on ? std::chrono::steady_clock::now()
             : std::chrono::steady_clock::time_point{};
  const fs::path root(dir);
  fs::create_directories(root);
  const std::int64_t h = cursor_.hours_since_epoch();
  const std::string name = checkpoint_name(h);
  const bool own = dir == config_.checkpoint_dir;
  checkpoint_info next;
  next.version = kCheckpointVersion;
  next.fingerprint = fingerprint();
  next.cursor_hours = h;
  next.base_hours = h;
  // A checkpoint can build on the base this campaign last published in
  // its own directory. Anything else (the anchor, another directory)
  // publishes a full base.
  const bool incremental = own && published_.has_value();
  bool full = true;
  // No hour since the last publish here (the final publish after the
  // storage bill, an interrupt right after a cadence publish): the
  // MANIFEST would not change, only the ledger can, so the published
  // ledger.bin is replaced in place by a file rename instead of swapping
  // the directory CURRENT names.
  bool refresh = false;
  if (incremental) {
    // Geometric bases: a new one once the hours since the last base
    // exceed the hours that base covers, so each base covers more than
    // twice the hours of the one before. The bytes written stay linear in
    // the window, and resume re-executes at most half of the hours run.
    // A store another campaign wrote since the last publish needs a full
    // base too: re-executing this campaign's hours cannot rebuild those
    // points.
    const std::int64_t base = published_->base_hours;
    const std::int64_t begin = config_.window.begin_at.hours_since_epoch();
    const bool shared_writes =
        store_->series_count() != published_store_series_ ||
        store_->point_count() != expected_store_points_;
    refresh = !shared_writes && h == published_->cursor_hours;
    full = shared_writes || (!refresh && h - base > base - begin);
    if (!full) next.base_hours = base;
  }
  const bool compaction = incremental && full;
  const fs::path staging = root / (name + ".staging");
  const fs::path ledger_tmp = root / name / "ledger.bin.tmp";
  std::uint64_t written = 0;
  std::error_code ec;
  fs::remove_all(staging, ec);
  try {
    binary_writer ledger;
    save_state(ledger, /*full=*/false);
    written += ledger.bytes().size() + 4;
    if (refresh) {
      write_checkpoint_file(ledger_tmp, ledger.bytes());
      fs::rename(ledger_tmp, root / name / "ledger.bin");
    } else {
      fs::create_directories(staging);
      if (full) {
        store_->snapshot_to((staging / "tsdb.snap").string());
        binary_writer state;
        save_state(state, /*full=*/true);
        write_checkpoint_file(staging / "state.bin", state.bytes());
        written += fs::file_size(staging / "tsdb.snap") +
                   state.bytes().size() + 4;
      }
      write_checkpoint_file(staging / "ledger.bin", ledger.bytes());
      const std::string manifest = encode_manifest(next);
      write_checkpoint_file(staging / "MANIFEST", manifest);
      written += manifest.size() + 4;
      // Publish: the staged directory becomes visible in one rename, then
      // the CURRENT pointer flips in another. A full checkpoint at an hour
      // already published (an anchor in a reused directory, a shared-store
      // base at the same hour) swaps the two directories in one step, so
      // CURRENT never names a missing one; the old one, now under the
      // staging name, is removed (or by GC after a kill).
      const fs::path published = root / name;
      if (fs::exists(published)) {
        if (::renameat2(AT_FDCWD, staging.c_str(), AT_FDCWD,
                        published.c_str(), RENAME_EXCHANGE) != 0) {
          throw storage_error("checkpoint: cannot swap " + staging.string() +
                              " into place: " + std::strerror(errno));
        }
        kill_point(publish_kill_point::after_directory_swap);
        fs::remove_all(staging, ec);
      } else {
        fs::rename(staging, published);
      }
      {
        std::ofstream cur(root / "CURRENT.tmp", std::ios::trunc);
        cur << name << '\n';
        cur.flush();
        if (!cur) {
          throw storage_error("checkpoint: cannot write CURRENT in " + dir);
        }
      }
      fs::rename(root / "CURRENT.tmp", root / "CURRENT");
    }
  } catch (const std::exception& e) {
    // Storage failed underneath the publish (ENOSPC, short write, a
    // rename the filesystem refused). Nothing durable changed: CURRENT
    // still names the previous checkpoint and in-memory replay state is
    // untouched. The partial staging directory is quarantined — not
    // deleted — so the operator can inspect what the disk accepted, and
    // its name can never be mistaken for a published checkpoint.
    if (fs::exists(staging)) {
      const fs::path quarantine = root / (name + ".quarantine");
      fs::remove_all(quarantine, ec);
      fs::rename(staging, quarantine, ec);
      if (ec) fs::remove_all(staging, ec);
    }
    fs::remove(root / "CURRENT.tmp", ec);
    fs::remove(ledger_tmp, ec);
    CLASP_LOG(warn, "campaign")
        << config_.label << "/" << config_.region << ": checkpoint " << name
        << " aborted, previous checkpoint remains CURRENT: " << e.what();
    throw storage_error("checkpoint: publish of " + name +
                        " failed, previous checkpoint left valid: " +
                        e.what());
  }
  kill_point(publish_kill_point::before_gc);
  // GC: every checkpoint directory the new MANIFEST does not name, and
  // stale staging dirs. CURRENT already points at the new checkpoint, so
  // a crash mid-GC costs only disk space. Quarantined publish failures
  // are evidence, not garbage — they survive GC until an operator
  // removes them.
  std::size_t gc_removed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string base = entry.path().filename().string();
    if (!starts_with(base, "ckpt-") || base.ends_with(".quarantine") ||
        base == name || base == next.base_name()) {
      continue;
    }
    fs::remove_all(entry.path(), ec);
    ++gc_removed;
  }
  if (own) {
    published_ = next;
    published_store_series_ = store_->series_count();
    expected_store_points_ = store_->point_count();
  }
  last_checkpoint_hour_ = h;
  if (obs_on) {
    obs::metrics_registry& reg = obs::metrics_registry::instance();
    reg.get_counter(obs::family::kCheckpointPublishes).add(1);
    reg.get_counter(obs::family::kCheckpointBytesWritten).add(written);
    if (compaction) {
      reg.get_counter(obs::family::kCheckpointCompactions).add(1);
    }
    if (gc_removed != 0) {
      reg.get_counter(obs::family::kCheckpointGcRemoved).add(gc_removed);
    }
    reg.get_gauge(obs::family::kCheckpointLastHour)
        .set(static_cast<double>(h));
    reg.get_histogram(obs::family::kCheckpointPublishSeconds,
                      obs::duration_buckets())
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - publish_begin)
                     .count());
  }
  CLASP_LOG(info, "campaign")
      << config_.label << "/" << config_.region << ": checkpoint " << name
      << (full ? " (base, " : refresh ? " (ledger, " : " (manifest, ")
      << written << " bytes)";
}

bool campaign_runner::resume(const std::string& dir) {
  if (!deployed_) throw state_error("campaign_runner: not deployed");
  const std::optional<std::string> current = current_checkpoint(dir);
  if (!current) return false;
  const obs::trace_span resume_span(obs::phase::resume,
                                    cursor_.hours_since_epoch());
  obs::metrics_registry::instance()
      .get_counter(obs::family::kCheckpointResumes)
      .add(1);
  const checkpoint_info info = read_checkpoint_info(*current);
  if (info.fingerprint != fingerprint()) {
    throw state_error(
        "campaign_runner: checkpoint fingerprint mismatch (different "
        "campaign, seed, window or fault config)");
  }
  // The fingerprint pins the window, so a manifest outside it is damage;
  // refusing it also bounds the hours re-executed below.
  if (info.base_hours < config_.window.begin_at.hours_since_epoch() ||
      info.cursor_hours > config_.window.end_at.hours_since_epoch()) {
    throw invalid_argument_error(
        "checkpoint: manifest hours outside the campaign window");
  }
  const fs::path base = fs::path(dir) / info.base_name();
  if (!fs::exists(base)) {
    throw state_error("checkpoint: " + *current + " builds on missing base " +
                      base.string());
  }
  const auto load = [this](const std::string& bytes, bool full,
                           const fs::path& path) {
    binary_reader in(bytes);
    load_state(in, full);
    if (!in.done()) {
      throw invalid_argument_error("checkpoint: trailing bytes in " +
                                   path.string());
    }
  };
  // The small ledger is read and checked first, so a damaged one is
  // refused before any hour is re-executed.
  const fs::path ledger_path = fs::path(*current) / "ledger.bin";
  const std::string ledger = read_crc_file(ledger_path.string());
  store_->restore_from((base / "tsdb.snap").string());
  reserve_series();
  load(read_crc_file((base / "state.bin").string()), /*full=*/true,
       base / "state.bin");
  cursor_ = hour_stamp{info.base_hours};
  config_.checkpoint_dir = dir;
  // Registry catch-up: withdrawals before the base were retired hour by
  // hour in the interrupted process; this process's registry is fresh.
  // Re-executed hours retire their own withdrawals in begin_hour.
  if (churn_registry_ != nullptr && plan_.enabled()) {
    for (const auto& [server_id, hour] : plan_.withdrawals()) {
      if (hour < cursor_ && !churn_registry_->retired(server_id)) {
        churn_registry_->retire_server(server_id);
      }
    }
  }
  // Every hour since the base is a pure function of the base's state and
  // the outage windows, so running it again gives the bytes the
  // interrupted process committed. The windows come from the ledger, at
  // its head: one injected after the base must cover its hours again.
  {
    binary_reader in(ledger);
    load_outages(in);
  }
  while (cursor_.hours_since_epoch() < info.cursor_hours) run_hour(cursor_);
  // The checkpoint's ledger replaces what the base and the re-executed
  // hours made of the state they cannot carry: the platform-wide cloud
  // ledger (other campaigns bill it too), the swarm ledgers, outage
  // windows, the storage bill.
  load(ledger, /*full=*/false, ledger_path);
  published_ = info;
  published_store_series_ = store_->series_count();
  expected_store_points_ = store_->point_count();
  last_checkpoint_hour_ = info.cursor_hours;
  CLASP_LOG(info, "campaign")
      << config_.label << "/" << config_.region << ": resumed at "
      << cursor_.to_string() << " ("
      << info.cursor_hours - info.base_hours
      << " hours re-executed from the base)";
  return true;
}

}  // namespace clasp
