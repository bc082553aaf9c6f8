// Seeded mutation fuzzing of every decoder that reads bytes from a file
// or a socket. Each valid encoding is mutated four ways — truncation at
// every length, seeded bit flips, a huge length or count laid over every
// offset, and seeded splices with a second valid encoding — and every
// mutant must decode to a value or fail with a clasp::error: never a
// crash, a hang, std::bad_alloc or any other exception. Formats behind a CRC are also fuzzed resealed
// (the payload mutated, then framed or trailed again), which is the
// only way mutants reach the decoder behind the check.
//
// The checkpoint files and the VM-hour record only decode against a
// deployed campaign, so one small durable campaign is built and run once
// per test process (deployed()); its state.bin, ledger.bin and MANIFEST are
// fuzzed through the same resume() that reads them after a kill.
//
// Deterministic: util/rng seeds every mutation, and no corpus or engine
// outside the repository is involved. Sized to run in a few seconds
// under ASan.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "clasp/checkpoint.hpp"
#include "clasp/platform.hpp"
#include "dist/channel.hpp"
#include "dist/protocol.hpp"
#include "svc/control.hpp"
#include "svc/registry.hpp"
#include "svc/spec.hpp"
#include "test_support.hpp"
#include "tsdb/tsdb.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;

constexpr int kFlips = 1000;
constexpr int kSplices = 500;

// Big values laid over a length or count field: u32s just past the
// channel's 64 MiB bound and near 4 GiB, and varints of 2^35 and 2^64-1.
const std::string kHuge[] = {
    std::string("\x01\x00\x00\x04", 4), "\xf0\xff\xff\xff",
    "\xff\xff\xff\xff\x7f", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"};

// Calls `check` on every mutant of `valid`; `other` is the second valid
// encoding splices draw from.
void for_each_mutant(std::string_view valid, std::string_view other,
                     std::uint64_t seed,
                     const std::function<void(const std::string&)>& check) {
  for (std::size_t n = 0; n < valid.size(); ++n) {
    check(std::string(valid.substr(0, n)));
  }
  rng r(seed);
  const auto pick = [&r](std::size_t size) {
    return static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  for (int i = 0; i < kFlips; ++i) {
    std::string m(valid);
    for (std::int64_t b = r.uniform_int(1, 3); b > 0; --b) {
      m[pick(m.size())] ^= static_cast<char>(1 << r.uniform_int(0, 7));
    }
    check(m);
  }
  for (std::size_t at = 0; at < valid.size(); ++at) {
    for (const std::string& huge : kHuge) {
      std::string m(valid);
      m.replace(at, std::min(huge.size(), m.size() - at), huge);
      check(m);
    }
  }
  for (int i = 0; i < kSplices; ++i) {
    const bool valid_first = i % 2 == 0;
    const std::string_view head = valid_first ? valid : other;
    const std::string_view tail = valid_first ? other : valid;
    check(std::string(head.substr(0, pick(head.size() + 1))) +
          std::string(tail.substr(pick(tail.size() + 1))));
  }
}

// Runs `decode` over every mutant and fails on anything that escapes it
// other than a clasp::error. The valid encoding itself must decode.
void fuzz(const std::string& what, const std::string& valid,
          const std::string& other, std::uint64_t seed,
          const std::function<void(const std::string&)>& decode) {
  ASSERT_NO_THROW(decode(valid)) << what << ": the valid encoding";
  std::size_t inputs = 0;
  std::size_t untyped = 0;
  std::string first;
  for_each_mutant(valid, other, seed, [&](const std::string& input) {
    ++inputs;
    try {
      decode(input);
    } catch (const error&) {
      // a typed refusal: the contract
    } catch (const std::exception& e) {
      if (untyped++ == 0) {
        first = std::string(typeid(e).name()) + ": " + e.what() + " on " +
                std::to_string(input.size()) + " bytes";
      }
    }
  });
  EXPECT_EQ(untyped, 0u) << what << ": " << untyped << " of " << inputs
                         << " mutants escaped untyped; first: " << first;
}

std::string framed(std::initializer_list<std::string> payloads) {
  std::string out;
  for (const std::string& p : payloads) append_frame(out, p);
  return out;
}

std::string trailed(std::string_view payload) {
  std::ostringstream os;
  crc_trailer_writer file(os);
  file.write(payload);
  file.close();
  return os.str();
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- the encodings ---------------------------------------------------------

// Opaque record bytes for frames and hour groups, which never look inside.
std::string record_bytes(std::int64_t hour, int n) {
  binary_writer out;
  out.svarint(hour);
  for (int i = 0; i < n; ++i) out.f64(hour * 0.5 + i);
  return out.take();
}

std::string snapshot(int series, int points) {
  tsdb db;
  for (int s = 0; s < series; ++s) {
    const series_ref ref = db.open_series(
        "metric" + std::to_string(s % 2),
        {{"server", std::to_string(s)}, {"region", "us-west\xc3\xa9"}});
    for (int p = 0; p < points; ++p) {
      db.write(ref, hour_stamp{1000 + 3 * p + s}, p * 1.25 - s);
    }
  }
  std::ostringstream os;
  db.snapshot_to(os);
  return os.str();
}

std::string dist_group(std::int64_t hour, int records) {
  dist::dist_message m;
  m.type = dist::msg_type::hour_group;
  m.shard = 1;
  m.hour = hour;
  for (int i = 0; i < records; ++i) {
    m.records.push_back(record_bytes(hour, i + 1));
  }
  return dist::encode_message(m);
}

std::string dist_hello() {
  dist::dist_message m;
  m.type = dist::msg_type::hello;
  m.shard = 2;
  m.hour = 1000;
  m.fingerprint = 0xfeedfacecafebeefull;
  m.slot_begin = 4;
  m.slot_end = 9;
  return dist::encode_message(m);
}

std::string dist_beat(std::int64_t hour) {
  dist::dist_message m;
  m.type = dist::msg_type::heartbeat;
  m.shard = 1;
  m.hour = hour;
  return dist::encode_message(m);
}

svc::campaign_spec spec(const std::string& region, int days,
                        std::uint64_t seed) {
  svc::campaign_spec s;
  s.region = region;
  s.days = days;
  s.seed = seed;
  s.workers = 2;
  s.shards = 1;
  s.faults = "low";
  return s;
}

std::string registry(int campaigns) {
  svc::campaign_registry reg;
  for (int i = 0; i < campaigns; ++i) {
    const svc::campaign_record& rec =
        reg.submit(i % 2 == 0 ? "alice" : "bob",
                   spec(i % 2 == 0 ? "us-west1" : "us-east1", 1 + i,
                        static_cast<std::uint64_t>(7 * i)));
    if (i == 1) reg.fail(rec.id, "disk full");
  }
  return reg.encode();
}

svc::control_reply reply(int campaigns) {
  svc::control_reply r;
  r.ok = true;
  r.id = 9;
  r.service.queued = 3;
  r.service.warm_resumes = 300;
  for (int i = 0; i < campaigns; ++i) {
    svc::campaign_status c;
    c.id = static_cast<std::uint64_t>(i + 1);
    c.tenant = "tenant" + std::to_string(i);
    c.state = "running";
    c.region = "us-west1";
    c.days = 3;
    c.cursor_hours = 1000 + i;
    c.error = i == 0 ? "" : "preempted";
    r.campaigns.push_back(c);
  }
  return r;
}

// One small durable campaign, run to the end of a two-hour window with a
// checkpoint every hour: bases at hours 0 and 1, then a cadence publish
// at 2 that builds on the base at 1. So CURRENT names a MANIFEST and a
// ledger, its base holds tsdb.snap and state.bin, and every resume
// re-executes one hour. Built once, under a directory named after the
// test, since ctest runs tests in parallel processes.
class deployed_campaign {
 public:
  deployed_campaign()
      : root_(fs::temp_directory_path() /
              (std::string("clasp_fuzz_") + ::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name())),
        platform_((fs::remove_all(root_), config(root_.string()))),
        runner_(platform_.start_topology_campaign("us-west1", window())) {
    EXPECT_TRUE(runner_.run());
    current_ = *current_checkpoint(dir());
    base_ = (fs::path(dir()) / read_checkpoint_info(current_).base_name())
                .string();
  }
  ~deployed_campaign() { fs::remove_all(root_); }

  campaign_runner& runner() { return runner_; }
  std::string dir() const { return runner_.config().checkpoint_dir; }
  // The published checkpoint and the base it builds on.
  const std::string& current() const { return current_; }
  const std::string& base() const { return base_; }

  static hour_range window() {
    const hour_stamp begin = hour_stamp::from_civil({2020, 5, 1}, 0);
    return {begin, begin + 2};
  }

 private:
  static platform_config config(const std::string& root) {
    platform_config cfg;
    cfg.internet = ::clasp::testing::small_internet_config();
    cfg.internet.regional_isp_count = 120;
    cfg.internet.business_count = 150;
    cfg.internet.hosting_count = 80;
    cfg.internet.education_count = 30;
    cfg.internet.vantage_point_count = 120;
    cfg.servers = ::clasp::testing::small_server_config();
    cfg.servers.us_server_target = 120;
    cfg.servers.global_server_target = 600;
    cfg.topology_budgets = {{"us-west1", 6}};
    cfg.campaign_faults = fault_config::preset("low");
    cfg.campaign_checkpoint_dir = root;
    cfg.campaign_checkpoint_every_hours = 1;
    return cfg;
  }

  fs::path root_;
  clasp_platform platform_;
  campaign_runner& runner_;
  std::string current_;
  std::string base_;
};

deployed_campaign& deployed() {
  static deployed_campaign campaign;
  return campaign;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Fuzzes one checkpoint file through resume(), raw (the file's bytes
// mutated) and resealed (its payload mutated, then trailed again), and
// puts the valid file back. `other` is a second valid payload to splice
// from.
void fuzz_checkpoint_file(const std::string& what, const std::string& path,
                          const std::string& other, std::uint64_t seed) {
  deployed_campaign& d = deployed();
  const std::string file = read_file(path);
  const std::string payload = read_crc_file(path);
  const auto resume = [&d] { d.runner().resume(d.dir()); };
  fuzz(what, file, trailed(other), seed, [&](const std::string& bytes) {
    write_file(path, bytes);
    resume();
  });
  fuzz(what + " (resealed)", payload, other, seed + 1,
       [&](const std::string& bytes) {
         write_crc_file(path, bytes);
         resume();
       });
  write_file(path, file);
  EXPECT_NO_THROW(resume()) << what << ": the valid file put back";
}

// --- the decoders ----------------------------------------------------------

TEST(DecoderFuzz, CutFrame) {
  const auto cut_all = [](const std::string& bytes) {
    std::string_view rest = bytes;
    for (;;) {
      const frame_cut cut = cut_frame(rest, 1u << 20);
      if (cut.status == frame_status::incomplete ||
          cut.status == frame_status::bad_length) {
        return;
      }
      ASSERT_GE(cut.consumed, kFrameHeaderBytes);
      ASSERT_LE(cut.consumed, rest.size());
      ASSERT_EQ(cut.consumed, kFrameHeaderBytes + cut.payload.size());
      rest.remove_prefix(cut.consumed);
    }
  };
  fuzz("cut_frame", framed({"first", "", record_bytes(5, 3)}),
       framed({dist_hello(), "x"}), 1, cut_all);
}

TEST(DecoderFuzz, VmHourRecord) {
  // The dist wire codec: a shard's records for one hour, raw inside the
  // hour_group message that carries them, and resealed (the record
  // mutated, its per-record CRC then taken again by the sender).
  campaign_runner& c = deployed().runner();
  const hour_stamp at = deployed_campaign::window().begin_at + 1;
  std::vector<campaign_runner::vm_hour_staging> staged;
  c.stage_shard_hour(at, 0, c.vm_count(), staged);
  dist::dist_message group;
  group.type = dist::msg_type::hour_group;
  group.hour = at.hours_since_epoch();
  for (std::size_t v = 0; v < staged.size(); ++v) {
    group.records.push_back(c.encode_wal_record(v, staged[v]));
  }
  std::vector<campaign_runner::vm_hour_staging> other_hour;
  c.stage_shard_hour(at + (-1), 0, c.vm_count(), other_hour);
  const std::string other = c.encode_wal_record(0, other_hour[0]);
  campaign_runner::vm_hour_staging out;
  fuzz("decode_wal_record (in an hour_group)", dist::encode_message(group),
       dist_group(1000, 2), 2, [&](const std::string& bytes) {
         for (const std::string& record : dist::decode_message(bytes).records) {
           c.decode_wal_record(record, out);
         }
       });
  fuzz("decode_wal_record", group.records.front(), other, 3,
       [&](const std::string& record) { c.decode_wal_record(record, out); });
}

TEST(DecoderFuzz, FdChannelRecvAndDistMessages) {
  const auto receive_all = [](const std::string& bytes) {
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    dist::fd_channel tx(sv[0]);
    dist::fd_channel rx(sv[1]);
    ASSERT_EQ(::send(tx.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    tx.close();
    // Every frame consumes at least a header, so a stream ends within
    // this many receives or the channel is stuck.
    for (std::size_t i = 0; i <= bytes.size() / kFrameHeaderBytes + 1; ++i) {
      std::string payload;
      const dist::recv_status rs = rx.recv(payload, 1000);
      ASSERT_NE(rs, dist::recv_status::timeout);
      if (rs == dist::recv_status::closed) return;
      if (rs == dist::recv_status::ok) dist::decode_message(payload);
    }
    FAIL() << "recv never reported the closed stream";
  };
  fuzz("fd_channel::recv",
       framed({dist_hello(), dist_beat(1000), dist_group(1000, 3)}),
       framed({dist_group(1001, 2), dist_beat(1001)}), 4, receive_all);
  const auto decode = [](const std::string& payload) {
    dist::decode_message(payload);
  };
  fuzz("decode_message (group)", dist_group(1000, 3), dist_hello(), 5,
       decode);
  fuzz("decode_message (hello)", dist_hello(), dist_group(1001, 2), 6,
       decode);
}

TEST(DecoderFuzz, CheckpointManifest) {
  deployed_campaign& d = deployed();
  const std::string path = d.current() + "/MANIFEST";
  // The base's own MANIFEST is the second valid encoding.
  const std::string other = read_crc_file(d.base() + "/MANIFEST");
  const std::string file = read_file(path);
  const std::string payload = read_crc_file(path);
  fuzz("read_checkpoint_info", file, trailed(other), 7,
       [&](const std::string& bytes) {
         write_file(path, bytes);
         read_checkpoint_info(d.current());
       });
  fuzz("read_checkpoint_info (resealed)", payload, other, 8,
       [&](const std::string& bytes) {
         write_crc_file(path, bytes);
         read_checkpoint_info(d.current());
       });
  // Through resume, which also bounds the hours it re-executes.
  write_file(path, file);
  fuzz_checkpoint_file("resume (MANIFEST)", path, other, 16);
  fuzz("read_crc_file", trailed("ledger bytes"), trailed("other"), 9,
       [&](const std::string& file_bytes) {
         write_file(path, file_bytes);
         read_crc_file(path);
       });
  write_file(path, file);
}

TEST(DecoderFuzz, CheckpointStateAndLedger) {
  deployed_campaign& d = deployed();
  const std::string state = d.base() + "/state.bin";
  const std::string ledger = d.current() + "/ledger.bin";
  // state.bin splices from the ledger (its own tail) and the other way
  // round.
  fuzz_checkpoint_file("resume (state.bin)", state, read_crc_file(ledger), 18);
  fuzz_checkpoint_file("resume (ledger.bin)", ledger, read_crc_file(state), 20);
}

TEST(DecoderFuzz, TsdbSnapshot) {
  const auto restore = [](const std::string& bytes) {
    std::istringstream is(bytes);
    tsdb db;
    db.restore_from(is);
  };
  fuzz("tsdb::restore_from", snapshot(3, 6), snapshot(2, 3), 10, restore);
  const std::string valid = snapshot(3, 6);
  const std::string other = snapshot(2, 3);
  fuzz("tsdb::restore_from (resealed)",
       valid.substr(0, valid.size() - 4), other.substr(0, other.size() - 4),
       11, [&](const std::string& payload) { restore(trailed(payload)); });
}

TEST(DecoderFuzz, ServiceCodecs) {
  svc::control_request submit;
  submit.op = svc::control_op::submit;
  submit.tenant = "alice";
  submit.spec = spec("us-west1", 3, 42);
  svc::control_request cancel;
  cancel.op = svc::control_op::cancel;
  cancel.tenant = "bob";
  cancel.id = 77;
  fuzz("decode_request", svc::encode_request(submit),
       svc::encode_request(cancel), 12,
       [](const std::string& b) { svc::decode_request(b); });
  fuzz("decode_reply", svc::encode_reply(reply(3)),
       svc::encode_reply(reply(1)), 13,
       [](const std::string& b) { svc::decode_reply(b); });
  fuzz("decode_spec", svc::encode_spec(spec("us-west1", 3, 42)),
       svc::encode_spec(spec("us-east1", 10, 0)), 14,
       [](const std::string& b) { svc::decode_spec(b); });
  fuzz("campaign_registry::decode", registry(3), registry(1), 15,
       [](const std::string& b) { svc::campaign_registry::decode(b); });
}

}  // namespace
}  // namespace clasp
