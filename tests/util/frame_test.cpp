// The framed-record codec: frame layout and the four cut results every
// stream reader maps to its own policy, and the CRC trailer's streaming
// writer and reader, check and small-file helpers.
#include "util/frame.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "util/binio.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

constexpr std::uint32_t kMax = 1u << 20;

TEST(Frame, HeaderIsLengthThenCrcLittleEndian) {
  const std::string payload = "\x00\x01\xff framed"s;
  std::string out = "prefix";
  append_frame(out, payload);
  binary_writer expect;
  expect.u32(static_cast<std::uint32_t>(payload.size()));
  expect.u32(crc32(payload));
  EXPECT_EQ(out, "prefix" + expect.bytes() + payload);
}

TEST(Frame, CutsConsecutiveFramesIncludingEmpty) {
  std::string stream;
  append_frame(stream, "first");
  append_frame(stream, "");
  append_frame(stream, "third");
  std::string_view rest = stream;
  for (const std::string_view expect : {"first", "", "third"}) {
    const frame_cut cut = cut_frame(rest, kMax);
    ASSERT_EQ(cut.status, frame_status::ok);
    EXPECT_EQ(cut.payload, expect);
    EXPECT_EQ(cut.consumed, kFrameHeaderBytes + expect.size());
    rest.remove_prefix(cut.consumed);
  }
  EXPECT_EQ(cut_frame(rest, kMax).status, frame_status::incomplete);
}

TEST(Frame, EveryPartialFrameIsIncomplete) {
  // A reader cannot tell "more bytes coming" from a torn tail; what it
  // does with that (wait, drop the tail) is its own policy.
  std::string frame;
  append_frame(frame, "half a frame");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const frame_cut cut = cut_frame(std::string_view(frame).substr(0, len),
                                    kMax);
    EXPECT_EQ(cut.status, frame_status::incomplete) << "len=" << len;
    EXPECT_EQ(cut.consumed, 0u);
  }
}

TEST(Frame, BadCrcConsumesTheFrameSoTheNextOneCuts) {
  std::string stream;
  append_frame(stream, "damaged");
  stream[kFrameHeaderBytes + 2] ^= 0x10;
  append_frame(stream, "clean");
  const frame_cut bad = cut_frame(stream, kMax);
  ASSERT_EQ(bad.status, frame_status::bad_crc);
  EXPECT_EQ(bad.consumed, kFrameHeaderBytes + 7);
  const frame_cut next =
      cut_frame(std::string_view(stream).substr(bad.consumed), kMax);
  ASSERT_EQ(next.status, frame_status::ok);
  EXPECT_EQ(next.payload, "clean");
}

TEST(Frame, LengthAboveTheBoundIsRefusedEvenWhenShort) {
  // A tear only shortens a stream: a full header with an absurd length
  // is damage, whether or not the bytes it claims are present.
  const std::string header = "\x7f\x7f\x7f\x7f\x00\x00\x00\x00"s;
  EXPECT_EQ(cut_frame(header, kMax).status, frame_status::bad_length);
  std::string frame;
  append_frame(frame, "12345");
  EXPECT_EQ(cut_frame(frame, 4).status, frame_status::bad_length);
  EXPECT_EQ(cut_frame(frame, 5).status, frame_status::ok);
}

TEST(Frame, TrailerWriterStreamsTheBytesOfOnePayload) {
  // Encoded through the buffer past several spills, plus bytes written
  // directly: the file is the payload and the CRC of all of it.
  std::ostringstream os;
  crc_trailer_writer file(os);
  std::string payload;
  for (std::uint32_t i = 0; i < 300000; ++i) {
    file.buffer().u32(i);
    file.spill();
  }
  file.write("tail");
  const std::uint64_t n = file.close();
  for (std::uint32_t i = 0; i < 300000; ++i) {
    binary_writer w;
    w.u32(i);
    payload += w.bytes();
  }
  payload += "tail";
  binary_writer trailer;
  trailer.u32(crc32(payload));
  EXPECT_EQ(os.str(), payload + trailer.bytes());
  EXPECT_EQ(n, payload.size() + 4);
  EXPECT_EQ(check_crc_trailer(os.str(), "test"), payload);
}

TEST(Frame, TrailerCheckRefusesShortAndDamagedContent) {
  std::ostringstream os;
  crc_trailer_writer file(os);
  file.write("payload");
  file.close();
  const std::string good = os.str();
  EXPECT_EQ(check_crc_trailer(good, "test"), "payload");
  EXPECT_THROW(check_crc_trailer(good.substr(0, 3), "test"),
               invalid_argument_error);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x01;
    EXPECT_THROW(check_crc_trailer(bad, "test"), invalid_argument_error)
        << "byte " << i;
  }
}

TEST(Frame, TrailerReaderReadsAcrossWindows) {
  // More than two 1 MiB windows of varints and f64s, a string longer
  // than a window and a count bounded by the whole payload, read back
  // through windows far smaller than the values they hold.
  std::ostringstream os;
  crc_trailer_writer file(os);
  const std::string big(std::size_t{3} << 19, 'x');  // 1.5 MiB
  file.buffer().varint(300000);
  for (std::uint64_t i = 0; i < 300000; ++i) {
    file.buffer().varint(i * 977);
    file.buffer().f64(static_cast<double>(i) / 7.0);
    file.spill();
  }
  file.buffer().str(big);
  file.buffer().str("end");
  file.close();
  const std::string good = os.str();
  const auto read_all = [](const std::string& bytes) {
    std::istringstream is(bytes);
    crc_trailer_reader in(is, bytes.size(), "test");
    const std::size_t n = in.count(9);
    binary_reader& r = in.window(18);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (r.left() < 18) in.window(18);
      if (r.varint() != i * 977 || r.f64() != static_cast<double>(i) / 7.0) {
        ADD_FAILURE() << "value " << i;
        return;
      }
    }
    EXPECT_EQ(in.str(), std::string(std::size_t{3} << 19, 'x'));
    EXPECT_EQ(in.str(), "end");
    EXPECT_TRUE(in.done());
    in.close();
  };
  read_all(good);
  // A flipped trailer byte, a cut stream and a stream whose size claims
  // more than it holds all fail typed, at close() or before.
  std::string flipped = good;
  flipped[good.size() - 2] ^= 0x01;
  EXPECT_THROW(read_all(flipped), invalid_argument_error);
  EXPECT_THROW(read_all(good.substr(0, good.size() - 1)),
               invalid_argument_error);
  {
    std::istringstream is(good.substr(0, good.size() / 2));
    crc_trailer_reader in(is, good.size(), "test");
    EXPECT_THROW(in.window(good.size()), invalid_argument_error);
  }
  // A count larger than the bytes left in the whole payload.
  {
    binary_writer w;
    w.varint(good.size());
    std::ostringstream hostile_os;
    crc_trailer_writer hostile(hostile_os);
    hostile.write(w.bytes());
    hostile.close();
    std::istringstream is(hostile_os.str());
    crc_trailer_reader in(is, hostile_os.str().size(), "test");
    EXPECT_THROW(in.count(1), invalid_argument_error);
  }
  std::istringstream empty("abc");
  EXPECT_THROW(crc_trailer_reader(empty, 3, "test"), invalid_argument_error);
}

TEST(Frame, CrcFilesRoundTripAndFailTyped) {
  const fs::path dir = fs::temp_directory_path() / "clasp_frame_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "f.bin").string();
  write_crc_file(path, "\x00 bytes \xff"s);
  EXPECT_EQ(read_crc_file(path), "\x00 bytes \xff"s);
  EXPECT_EQ(fs::file_size(path), 13u);
  fs::resize_file(path, 12);
  EXPECT_THROW(read_crc_file(path), invalid_argument_error);
  EXPECT_THROW(read_crc_file((dir / "missing").string()), not_found_error);
  EXPECT_THROW(write_crc_file((dir / "no" / "dir").string(), "x"),
               storage_error);
  // Empty files and directories read as truncated, never as the size a
  // directory's seek reports.
  write_crc_file(path, "");
  EXPECT_EQ(read_crc_file(path), "");
  fs::resize_file(path, 0);
  EXPECT_THROW(read_crc_file(path), invalid_argument_error);
  EXPECT_THROW(read_crc_file(dir.string()), invalid_argument_error);
  // A payload of several MiB comes back whole.
  std::string big(3u << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131u >> 3);
  }
  write_crc_file(path, big);
  EXPECT_EQ(read_crc_file(path), big);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clasp
