// Framed byte channels: framing round-trips, CRC rejection with stream
// resync, torn tails and peer-death detection — for both the socketpair
// transport the fork()ed workers use and the file-backed test channel.
#include "dist/channel.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"

namespace clasp::dist {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

fs::path test_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("clasp_channel_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct socket_pair {
  socket_pair() {
    int sv[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    a = std::make_unique<fd_channel>(sv[0]);
    b = std::make_unique<fd_channel>(sv[1]);
  }
  std::unique_ptr<fd_channel> a;
  std::unique_ptr<fd_channel> b;
};

TEST(Channel, FdRoundTripsPayloads) {
  socket_pair p;
  const std::string binary = "\x00\x01\xff framed \x7f\x00"s;
  p.a->send("hello");
  p.a->send("");
  p.a->send(binary);
  std::string out;
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, "");
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, binary);
  // Both directions work over one socketpair.
  p.b->send("reply");
  EXPECT_EQ(p.a->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, "reply");
}

TEST(Channel, FdBadCrcIsConsumedAndStreamResyncs) {
  // A damaged frame is reported — and skipped: the next frame must come
  // through clean, because the coordinator re-requests only the damaged
  // group, never the whole stream.
  socket_pair p;
  p.a->send_bad_crc("damaged");
  p.a->send("clean");
  std::string out;
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::corrupt);
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, "clean");
}

TEST(Channel, FdSilenceIsTimeoutNotFailure) {
  socket_pair p;
  std::string out;
  EXPECT_EQ(p.b->recv(out, 30), recv_status::timeout);
  // Still usable afterwards.
  p.a->send("late");
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::ok);
  EXPECT_EQ(out, "late");
}

TEST(Channel, FdTornFrameThenPeerDeathIsClosed) {
  // Half a frame followed by EOF is a crash mid-write: the receiver must
  // report the peer gone, not wait forever for the missing bytes.
  socket_pair p;
  p.a->send_torn("never finished");
  p.a->close();
  std::string out;
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::closed);
}

TEST(Channel, FdSendToDeadPeerThrowsTyped) {
  socket_pair p;
  p.b->close();
  EXPECT_THROW(p.a->send("into the void"), state_error);
}

TEST(Channel, FileRoundTripsBothWays) {
  const fs::path dir = test_dir();
  const std::string a2b = (dir / "a2b").string();
  const std::string b2a = (dir / "b2a").string();
  file_channel left(b2a, a2b);
  file_channel right(a2b, b2a);
  left.send("ping");
  right.send("pong");
  std::string out;
  EXPECT_EQ(right.recv(out, 0), recv_status::ok);
  EXPECT_EQ(out, "ping");
  EXPECT_EQ(left.recv(out, 0), recv_status::ok);
  EXPECT_EQ(out, "pong");
  fs::remove_all(dir);
}

TEST(Channel, FileIncompleteFrameStaysTimeout) {
  // A file cannot distinguish "more bytes coming" from a torn tail; the
  // channel reports timeout and keeps reporting it — the ambiguity a
  // real torn stream has until the peer's death settles it.
  const fs::path dir = test_dir();
  file_channel left((dir / "b2a").string(), (dir / "a2b").string());
  file_channel right((dir / "a2b").string(), (dir / "b2a").string());
  std::string out;
  EXPECT_EQ(right.recv(out, 0), recv_status::timeout);  // nothing yet
  left.send_torn("half a frame");
  EXPECT_EQ(right.recv(out, 0), recv_status::timeout);
  EXPECT_EQ(right.recv(out, 0), recv_status::timeout);
  fs::remove_all(dir);
}

TEST(Channel, FileBadCrcAdvancesPastTheFrame) {
  const fs::path dir = test_dir();
  file_channel left((dir / "b2a").string(), (dir / "a2b").string());
  file_channel right((dir / "a2b").string(), (dir / "b2a").string());
  left.send_bad_crc("damaged");
  left.send("clean");
  std::string out;
  EXPECT_EQ(right.recv(out, 0), recv_status::corrupt);
  EXPECT_EQ(right.recv(out, 0), recv_status::ok);
  EXPECT_EQ(out, "clean");
  fs::remove_all(dir);
}

TEST(Channel, AbsurdLengthFieldIsClosedNotTimeout) {
  // A length field larger than any legal frame means the stream itself
  // is garbage — unrecoverable, unlike a CRC-failed frame.
  const fs::path dir = test_dir();
  {
    std::ofstream f(dir / "a2b", std::ios::binary);
    const char huge_len[8] = {'\x7f', '\x7f', '\x7f', '\x7f',
                              '\x00', '\x00', '\x00', '\x00'};
    f.write(huge_len, sizeof(huge_len));
  }
  file_channel right((dir / "a2b").string(), (dir / "b2a").string());
  std::string out;
  EXPECT_EQ(right.recv(out, 0), recv_status::closed);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clasp::dist
