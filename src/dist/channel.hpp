// Framed byte channels between the shard coordinator and its workers.
//
// Every message travels as one frame of the shared codec
// (util/frame.hpp), so the stream shares the durability layer's
// corruption taxonomy. Because the length prefix arrives intact even when
// the payload is damaged, a CRC-failed frame can be skipped without
// losing stream sync: the receiver reports it and keeps reading, and the
// coordinator re-requests just the damaged group instead of tearing the
// worker down. Only a truncated stream (peer death mid-frame) or an
// absurd length is unrecoverable.
//
// fd_channel wraps one end of a stream socketpair and is what fork()ed
// workers use. unix_listener/connect_unix put the same framing on a
// named unix-domain socket — the campaign service's control plane rides
// on it, so control messages inherit the CRC discipline and corruption
// taxonomy for free.
#pragma once

#include <memory>
#include <string>
#include <string_view>

namespace clasp::dist {

// Why recv returned without (or with) a payload.
enum class recv_status {
  ok,       // one complete, CRC-valid frame delivered
  timeout,  // deadline expired before a complete frame arrived
  corrupt,  // a complete frame failed its CRC; the frame was consumed and
            // the stream is still in sync — re-request, don't tear down
  closed,   // peer gone (EOF, EPIPE) or the stream is unrecoverable
            // (length field larger than any legal frame)
};

// Channel over a stream-socket file descriptor (one end of a
// socketpair). Owns the fd. Partial reads are reassembled internally;
// sends loop over partial writes and never raise SIGPIPE.
class fd_channel {
 public:
  explicit fd_channel(int fd);
  ~fd_channel();
  fd_channel(const fd_channel&) = delete;
  fd_channel& operator=(const fd_channel&) = delete;

  // Send one framed payload. Throws state_error when the peer is gone.
  void send(std::string_view payload);

  // Receive the next frame. timeout_ms < 0 blocks until a frame, EOF or
  // an error; 0 polls. On `ok` the payload is in `out`; otherwise `out`
  // is unspecified.
  recv_status recv(std::string& out, int timeout_ms);

  // Chaos injection for the kill-point sweep: send a complete frame
  // whose CRC is wrong (receiver must report `corrupt` and resync), or
  // the first half of a frame (receiver must see a torn stream).
  void send_bad_crc(std::string_view payload);
  void send_torn(std::string_view payload);

  int fd() const { return fd_; }
  void close();

 private:
  void send_raw(std::string_view bytes);

  int fd_;
  std::string buf_;  // received, not yet parsed
};

// Listening unix-domain stream socket. The constructor unlinks any stale
// socket file, binds and listens; the destructor closes and unlinks.
// accept() hands each connection back as an fd_channel sharing the frame
// discipline above.
class unix_listener {
 public:
  // Throws state_error when the path cannot be bound (too long, no
  // directory, permissions).
  explicit unix_listener(std::string path, int backlog = 8);
  ~unix_listener();
  unix_listener(const unix_listener&) = delete;
  unix_listener& operator=(const unix_listener&) = delete;

  // Wait up to timeout_ms (0 polls, < 0 blocks) for a connection;
  // nullptr on timeout. Throws state_error when the listener is broken.
  std::unique_ptr<fd_channel> accept(int timeout_ms);

  const std::string& path() const { return path_; }
  int fd() const { return fd_; }

 private:
  std::string path_;
  int fd_{-1};
};

// Client side: connect to a unix_listener's socket. Throws state_error
// when nothing listens at `path`.
std::unique_ptr<fd_channel> connect_unix(const std::string& path);

}  // namespace clasp::dist
