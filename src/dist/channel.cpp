#include "dist/channel.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "util/error.hpp"
#include "util/frame.hpp"

namespace clasp::dist {

namespace {

// A group frame carries one hour of one shard's VM-hour records — a few
// kilobytes per VM. Anything near this bound is a corrupted length
// field, not a real message.
constexpr std::uint32_t kMaxFrameBytes = 1u << 26;

std::string frame_of(std::string_view payload) {
  std::string frame;
  append_frame(frame, payload);
  return frame;
}

}  // namespace

fd_channel::fd_channel(int fd) : fd_(fd) {}

fd_channel::~fd_channel() { close(); }

void fd_channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void fd_channel::send_raw(std::string_view bytes) {
  if (fd_ < 0) throw state_error("dist channel: send on closed channel");
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE here (the
    // coordinator's failover trigger), never as a process-killing
    // SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw state_error("dist channel: peer gone during send");
    }
    off += static_cast<std::size_t>(n);
  }
}

void fd_channel::send(std::string_view payload) {
  send_raw(frame_of(payload));
}

void fd_channel::send_bad_crc(std::string_view payload) {
  std::string frame = frame_of(payload);
  frame[4] = static_cast<char>(frame[4] ^ 0x01);  // the CRC field's low byte
  send_raw(frame);
}

void fd_channel::send_torn(std::string_view payload) {
  const std::string frame = frame_of(payload);
  send_raw(std::string_view(frame).substr(0, frame.size() / 2 + 4));
}

recv_status fd_channel::recv(std::string& out, int timeout_ms) {
  if (fd_ < 0) return recv_status::closed;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const frame_cut cut = cut_frame(buf_, kMaxFrameBytes);
    if (cut.status == frame_status::bad_length) return recv_status::closed;
    if (cut.status != frame_status::incomplete) {
      const bool ok = cut.status == frame_status::ok;
      if (ok) out.assign(cut.payload);
      buf_.erase(0, cut.consumed);
      return ok ? recv_status::ok : recv_status::corrupt;
    }
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return recv_status::closed;
    }
    if (ready == 0) return recv_status::timeout;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return recv_status::closed;
    }
    if (n == 0) {
      // EOF: the peer died. Buffered bytes that never completed a frame
      // are a torn stream — indistinguishable from a crash mid-write.
      return recv_status::closed;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw state_error("dist channel: socket path too long: " + path);
  }
  path.copy(addr.sun_path, path.size());
  return addr;
}

}  // namespace

unix_listener::unix_listener(std::string path, int backlog)
    : path_(std::move(path)) {
  const sockaddr_un addr = unix_address(path_);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw state_error("dist channel: cannot create unix socket");
  ::unlink(path_.c_str());  // a stale file from a dead daemon blocks bind
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd_, backlog) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw state_error("dist channel: cannot listen on " + path_);
  }
}

unix_listener::~unix_listener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

std::unique_ptr<fd_channel> unix_listener::accept(int timeout_ms) {
  if (fd_ < 0) throw state_error("dist channel: listener is closed");
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw state_error("dist channel: poll failed on " + path_);
    }
    if (ready == 0) return nullptr;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      throw state_error("dist channel: accept failed on " + path_);
    }
    return std::make_unique<fd_channel>(client);
  }
}

std::unique_ptr<fd_channel> connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw state_error("dist channel: cannot create unix socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw state_error("dist channel: no service listening at " + path);
  }
  return std::make_unique<fd_channel>(fd);
}

}  // namespace clasp::dist
