// The one framed-record codec. Every durable or transported byte stream
// in CLASP uses one of two layouts (little-endian, as binio writes them):
//
//   frame:   [u32 payload length][u32 crc32(payload)][payload bytes]
//   trailer: [payload bytes][u32 crc32(payload)]
//
// Frames carry streams of records that a transport can tear or damage:
// the shard wire and the service control socket. A trailer closes one
// whole file: the TSDB snapshot, the checkpoint MANIFEST, state.bin and
// ledger.bin, the service registry snapshot. The codec owns the layouts;
// what a torn or damaged frame means (a partial read to wait on, a group
// to re-request, a dead peer) is each caller's policy, decided from
// cut_frame's status.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "util/binio.hpp"

namespace clasp {

inline constexpr std::size_t kFrameHeaderBytes = 8;

// Appends one frame carrying `payload` to `out`: the header is written in
// place, so the only allocation is out's own growth.
inline void append_frame(std::string& out, std::string_view payload) {
  const std::uint32_t fields[2] = {static_cast<std::uint32_t>(payload.size()),
                                   crc32(payload)};
  char header[kFrameHeaderBytes];
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<char>(fields[i / 4] >> (8 * (i % 4)));
  }
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
}

enum class frame_status {
  ok,          // a complete, CRC-valid frame
  incomplete,  // the bytes end before the frame does
  bad_crc,     // a complete frame whose CRC disagrees; the length arrived
               // intact, so it is consumed and the stream stays in sync
  bad_length,  // the length field exceeds max_len: the stream is garbage
};

struct frame_cut {
  frame_status status{frame_status::incomplete};
  std::string_view payload;   // the frame's payload when ok
  std::size_t consumed{0};    // header + payload when ok or bad_crc
};

// Cuts the first frame off `bytes`. A length field above `max_len` is
// bad_length even when the bytes end before the frame would: a tear can
// only shorten a stream, never rewrite a header.
frame_cut cut_frame(std::string_view bytes, std::uint32_t max_len);

// Streams a payload and then its crc32 trailer to `os`, through a bounded
// buffer folded into a running CRC, so a large payload is never one
// string. The caller checks `os` after close() and reports a failed
// write in its own error type.
class crc_trailer_writer {
 public:
  explicit crc_trailer_writer(std::ostream& os) : os_(os) {}

  // Encode into this, calling spill() at safe points.
  binary_writer& buffer() { return buf_; }
  // Writes the buffer out once it passes kChunk bytes.
  void spill() {
    if (buf_.bytes().size() >= kChunk) drain();
  }
  // Appends bytes already encoded elsewhere, bypassing the buffer.
  void write(std::string_view bytes);
  // Writes the rest and the trailer; returns the bytes written in all.
  std::uint64_t close();

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  void emit(std::string_view bytes);  // folded into the CRC, then out
  void drain();

  std::ostream& os_;
  binary_writer buf_;
  std::uint32_t crc_{0};
  std::uint64_t bytes_{0};
};

// Reads what crc_trailer_writer wrote: a payload of `stream_bytes` less
// the trailer, through a bounded window folded into a running CRC, so a
// large payload is never one string. The CRC is known only at close(),
// so a caller decodes into state it can drop and keeps it only once
// close() returns. Every failure (a short stream, a truncated payload, a
// CRC mismatch) is invalid_argument_error naming `what`.
class crc_trailer_reader {
 public:
  crc_trailer_reader(std::istream& is, std::uint64_t stream_bytes,
                     std::string what);

  // The reader, re-aimed at the unconsumed payload with at least
  // min(n, left()) bytes in view. It is the same object on every call:
  // what the caller consumes through it counts as read from then on.
  binary_reader& window(std::size_t n);
  // Payload bytes not yet consumed.
  std::uint64_t left() const {
    return unread_ + (buf_.size() - begin_) - reader_.pos();
  }
  bool done() const { return left() == 0; }
  // binary_reader::count, bounded by the bytes left in the whole payload.
  std::size_t count(std::size_t min_item_bytes);
  // binary_reader::str, for strings that may span more than a window.
  std::string str();
  // Reads the trailer and checks it against the payload's CRC; a payload
  // not yet consumed is refused as trailing bytes.
  void close();

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  // Reads exactly `n` bytes from the stream, failing as truncated when
  // it ends first.
  void read_into(char* at, std::size_t n);

  std::istream& is_;
  std::string what_;
  std::string buf_;          // payload bytes read and not yet dropped
  std::size_t begin_{0};     // first byte in buf_ the reader looks at
  std::uint64_t unread_{0};  // payload bytes still in the stream
  std::uint32_t crc_{0};
  binary_reader reader_{std::string_view{}};
};

// Returns the payload of `content` (payload + crc32 trailer). Throws
// invalid_argument_error, naming `what`, when the content is shorter
// than a trailer or the CRC disagrees.
std::string_view check_crc_trailer(std::string_view content,
                                   const std::string& what);

// Whole small files with a trailer. write_crc_file is a plain write
// (callers get atomicity from a tmp + rename publish) and throws
// storage_error when the file cannot be written. read_crc_file throws
// not_found_error when the file is missing and invalid_argument_error
// on truncation or a CRC mismatch.
void write_crc_file(const std::string& path, std::string_view payload);
std::string read_crc_file(const std::string& path);

}  // namespace clasp
