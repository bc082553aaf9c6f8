// Framed byte channels: framing round-trips, CRC rejection with stream
// resync, torn tails and peer-death detection over the socketpair
// transport the fork()ed workers use. The frame layout itself is tested
// in util/frame_test.cpp.
#include "dist/channel.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <string>

#include "util/error.hpp"

namespace clasp::dist {
namespace {

using namespace std::string_literals;

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

TEST(Channel, AbsurdLengthFieldIsClosedNotTimeout) {
  // A length field larger than any legal frame means the stream itself
  // is garbage — unrecoverable, unlike a CRC-failed frame.
  socket_pair p;
  const char huge_len[8] = {'\x7f', '\x7f', '\x7f', '\x7f',
                            '\x00', '\x00', '\x00', '\x00'};
  ASSERT_EQ(::send(p.a->fd(), huge_len, sizeof(huge_len), 0),
            static_cast<ssize_t>(sizeof(huge_len)));
  std::string out;
  EXPECT_EQ(p.b->recv(out, 1000), recv_status::closed);
}

}  // namespace
}  // namespace clasp::dist
