// Seeded mutation fuzzing of every decoder that reads bytes from a file
// or a socket. Each valid encoding is mutated four ways — truncation at
// every length, seeded bit flips, a huge length or count laid over every
// offset, and seeded splices with a second valid encoding — and every
// mutant must decode to a value or fail with a clasp::error: never a
// crash, a hang, std::bad_alloc or any other exception. Formats behind a CRC are also fuzzed resealed
// (the payload mutated, then framed or trailed again), which is the
// only way mutants reach the decoder behind the check.
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
#include "dist/channel.hpp"
#include "dist/protocol.hpp"
#include "svc/control.hpp"
#include "svc/registry.hpp"
#include "svc/spec.hpp"
#include "tsdb/tsdb.hpp"
#include "tsdb/wal.hpp"
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

fs::path fuzz_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("clasp_fuzz_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- the encodings ---------------------------------------------------------

std::string tsdb_commit(std::int64_t hour, std::uint32_t refs) {
  std::vector<std::pair<series_ref, double>> writes;
  for (series_ref r = 0; r < refs; ++r) writes.emplace_back(r, hour * 0.5 + r);
  return encode_tsdb_commit(hour_stamp{hour}, writes);
}

// A store with interned refs 0..3, for replaying fuzzed commit records.
tsdb four_series() {
  tsdb db;
  for (const char* m : {"a", "b", "c", "d"}) db.open_series(m, {{"k", m}});
  return db;
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

std::string manifest(int segments) {
  // The v3 MANIFEST layout of clasp/checkpoint.cpp: magic, version,
  // fingerprint, cursor, base hours and bytes, then contiguous segments.
  binary_writer out;
  out.u32(0x4B434C43u);
  out.u32(kCheckpointVersion);
  out.u64(0x1234567890abcdefull);
  out.svarint(1000 + 10 * segments);
  out.svarint(1000);
  out.u64(4096);
  out.varint(static_cast<std::uint64_t>(segments));
  for (int s = 0; s < segments; ++s) {
    out.svarint(1000 + 10 * s);
    out.svarint(1010 + 10 * s);
    out.u64(512 + static_cast<std::uint64_t>(s));
  }
  return out.take();
}

std::string dist_group(std::int64_t hour, int records) {
  dist::dist_message m;
  m.type = dist::msg_type::hour_group;
  m.shard = 1;
  m.hour = hour;
  for (int i = 0; i < records; ++i) {
    m.records.push_back(tsdb_commit(hour, static_cast<std::uint32_t>(i + 1)));
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
  fuzz("cut_frame", framed({"first", "", tsdb_commit(5, 3)}),
       framed({dist_hello(), "x"}), 1, cut_all);
}

TEST(DecoderFuzz, ScanWalAndCommitReplay) {
  const fs::path path = fuzz_dir() / "wal.log";
  const auto scan_and_replay = [&path](const std::string& bytes) {
    write_file(path, bytes);
    const wal_scan_result scan = scan_wal(path.string());
    ASSERT_LE(scan.valid_bytes, bytes.size());
    ASSERT_EQ(scan.records.size(), scan.record_end.size());
    ASSERT_EQ(scan.torn_tail, scan.valid_bytes < bytes.size());
    tsdb db = four_series();
    for (const std::string& record : scan.records) {
      apply_tsdb_commit(db, record);
    }
  };
  fuzz("scan_wal", framed({tsdb_commit(10, 4), tsdb_commit(11, 2)}),
       framed({tsdb_commit(12, 1), tsdb_commit(13, 3)}), 2, scan_and_replay);
  // Resealed: a damaged commit record in an intact frame.
  fuzz("scan_wal (resealed record)", tsdb_commit(10, 4), tsdb_commit(11, 2),
       3, [&](const std::string& record) {
         scan_and_replay(framed({record}));
       });
  fs::remove_all(path.parent_path());
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
  const fs::path dir = fuzz_dir();
  const std::string path = (dir / "MANIFEST").string();
  const auto read = [&](const std::string& file_bytes) {
    write_file(path, file_bytes);
    read_checkpoint_info(dir.string());
  };
  fuzz("read_checkpoint_info", trailed(manifest(3)), trailed(manifest(1)), 7,
       read);
  fuzz("read_checkpoint_info (resealed)", manifest(3), manifest(0), 8,
       [&](const std::string& payload) {
         write_crc_file(path, payload);
         read_checkpoint_info(dir.string());
       });
  fuzz("read_crc_file", trailed("ledger bytes"), trailed("other"), 9,
       [&](const std::string& file_bytes) {
         write_file(path, file_bytes);
         read_crc_file(path);
       });
  fs::remove_all(dir);
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
