#include "tsdb/wal.hpp"

#include <filesystem>
#include <iterator>

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"

namespace clasp {

namespace {

// Process-wide WAL counters (one campaign writes one WAL at a time, and
// the registry aggregates across writers anyway).
struct wal_metrics {
  obs::counter* appends;
  obs::counter* bytes;
  obs::counter* flushes;
};

wal_metrics& wal_counters() {
  static wal_metrics m{
      &obs::metrics_registry::instance().get_counter(
          obs::family::kWalAppends),
      &obs::metrics_registry::instance().get_counter(obs::family::kWalBytes),
      &obs::metrics_registry::instance().get_counter(
          obs::family::kWalFlushes)};
  return m;
}

// Frames larger than this are treated as corruption, not allocation
// requests: a campaign hour's record is a few kilobytes.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

constexpr std::uint8_t kTsdbCommitTag = 'C';

}  // namespace

wal_writer::wal_writer(const std::string& path, bool truncate)
    : path_(path),
      out_(path, truncate ? std::ios::binary | std::ios::trunc
                          : std::ios::binary | std::ios::app) {
  if (!out_) throw not_found_error("wal: cannot open " + path);
}

void wal_writer::append(std::string_view payload) {
  append_frame(pending_, payload);
  bytes_written_ += kFrameHeaderBytes + payload.size();
  wal_counters().appends->add(1);
  wal_counters().bytes->add(kFrameHeaderBytes + payload.size());
}

void wal_writer::flush() {
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  pending_.clear();
  out_.flush();
  if (!out_) throw state_error("wal: flush failed on " + path_);
  wal_counters().flushes->add(1);
}

wal_scan_result scan_wal(const std::string& path) {
  wal_scan_result result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // no log yet: nothing to recover

  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  for (;;) {
    const frame_cut cut =
        cut_frame(std::string_view(content).substr(pos), kMaxRecordBytes);
    if (cut.status == frame_status::incomplete) break;  // torn mid-frame
    if (cut.status != frame_status::ok) {
      // A fully-present frame failed its CRC, or its length field is
      // nonsensical: corruption, not a tear. The valid prefix is still
      // reported, but the caller must not treat this as a torn tail.
      result.corrupt = true;
      break;
    }
    result.records.emplace_back(cut.payload);
    pos += cut.consumed;
    result.record_end.push_back(pos);
  }
  result.valid_bytes = pos;
  result.torn_tail = pos < content.size();
  return result;
}

void truncate_wal(const std::string& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size <= valid_bytes) return;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    throw state_error("wal: cannot truncate " + path + ": " + ec.message());
  }
}

std::string encode_tsdb_commit(
    hour_stamp at, std::span<const std::pair<series_ref, double>> writes) {
  binary_writer out;
  out.u8(kTsdbCommitTag);
  out.svarint(at.hours_since_epoch());
  out.varint(writes.size());
  for (const auto& [ref, value] : writes) {
    out.varint(ref);
    out.f64(value);
  }
  return out.take();
}

void apply_tsdb_commit(tsdb& db, std::string_view payload) {
  binary_reader in(payload);
  if (in.u8() != kTsdbCommitTag) {
    throw invalid_argument_error("wal: not a tsdb commit record");
  }
  const hour_stamp at{in.svarint()};
  const std::uint64_t n = in.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const series_ref ref = static_cast<series_ref>(in.varint());
    const double value = in.f64();
    db.write(ref, at, value);
  }
  if (!in.done()) {
    throw invalid_argument_error("wal: trailing bytes in commit record");
  }
}

}  // namespace clasp
