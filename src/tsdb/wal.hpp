// Append-only write-ahead log with CRC32 framing.
//
// The durability layer logs every committed batch of work before the
// in-memory state that produced it can be lost: each record is one frame
// of the shared codec (util/frame.hpp). A crash can tear at most the tail
// of the file; scan_wal walks records front to back, stops at the first
// short or corrupt frame, and reports how many bytes are valid so
// recovery can truncate the torn tail and trust everything before it.
//
// Payloads are opaque to the framing. Two record codecs live here:
// encode_tsdb_commit/apply_tsdb_commit carry a batch of interned
// (series_ref, value) appends for one hour — the TSDB's own recovery
// path, reusing the fast write(ref) path — while the campaign layer
// frames richer per-(VM, hour) records through the same wal_writer (see
// clasp/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsdb/tsdb.hpp"

namespace clasp {

// Appends CRC-framed records to a log file. Throws not_found_error when
// the file cannot be opened. append() frames each record into one
// reusable buffer owned by the writer; flush() hands that buffer to the
// file in a single write. Call it at a consistency boundary (the
// campaign flushes once per committed hour). Records appended but not
// flushed when the writer is destroyed are dropped, as a crash would
// drop them.
class wal_writer {
 public:
  // truncate=true starts a fresh log; false appends after existing
  // records (the resume path, after scan_wal validated them).
  wal_writer(const std::string& path, bool truncate);

  void append(std::string_view payload);
  void flush();
  const std::string& path() const { return path_; }

  // Bytes appended through this writer (header + payload), excluding
  // whatever the file held before opening. Feeds the campaign heartbeat.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string pending_;  // frames appended since the last flush
  std::uint64_t bytes_written_{0};
};

// Result of walking a log front to back. Two distinct stop reasons:
//  * torn tail — the file ends before the last frame completes. This is
//    what a crash produces; recovery truncates it and re-runs the hour.
//  * interior corruption — a frame is fully present (header readable,
//    every payload byte on disk) but its CRC does not match, or its
//    length field is absurd. Tearing cannot produce this; something
//    rewrote durable bytes. Recovery must NOT silently truncate — the
//    resume path refuses the log with a typed corruption_error.
struct wal_scan_result {
  std::vector<std::string> records;       // payloads of every valid record
  std::vector<std::uint64_t> record_end;  // file offset just past record i
  std::uint64_t valid_bytes{0};           // prefix that passed CRC framing
  bool torn_tail{false};                  // bytes past valid_bytes exist
  bool corrupt{false};                    // stop was a CRC/length mismatch
                                          // on a fully-present frame
};

// Scan a log, stopping at the first torn or corrupt frame. A missing
// file scans as empty (no records, not an error). Never throws on bad
// bytes — the caller inspects torn_tail/corrupt and decides.
wal_scan_result scan_wal(const std::string& path);

// Truncate the log to `valid_bytes` (recovery drops a torn tail or an
// incomplete record group). No-op when the file is already that short.
void truncate_wal(const std::string& path, std::uint64_t valid_bytes);

// --- TSDB commit records ---------------------------------------------------

// One committed batch of appends at a single hour, carried by series ref.
std::string encode_tsdb_commit(
    hour_stamp at, std::span<const std::pair<series_ref, double>> writes);

// Apply a record encoded by encode_tsdb_commit through tsdb::write(ref).
// Refs must have been interned (snapshot restore or a deterministic
// re-deploy) before replay. Throws invalid_argument_error on a payload
// that is not a TSDB commit record.
void apply_tsdb_commit(tsdb& db, std::string_view payload);

}  // namespace clasp
