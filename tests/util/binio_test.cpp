#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace clasp {
namespace {

TEST(Crc32Test, KnownAnswers) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, SlicedPathMatchesBytewiseAcrossLengths) {
  // Lengths straddling the 8-byte slicing boundary, with embedded NULs
  // and high bytes, must agree with a reference bytewise computation.
  for (std::size_t len = 0; len < 64; ++len) {
    std::string bytes;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
    }
    std::uint32_t ref = 0xFFFFFFFFu;
    for (const char ch : bytes) {
      ref ^= static_cast<std::uint8_t>(ch);
      for (int k = 0; k < 8; ++k) {
        ref = (ref & 1) ? 0xEDB88320u ^ (ref >> 1) : ref >> 1;
      }
    }
    EXPECT_EQ(crc32(bytes), ref ^ 0xFFFFFFFFu) << "len=" << len;
  }
}

TEST(Crc32Test, ContinuesAcrossChunks) {
  // Any split, including empty pieces and splits inside an 8-byte
  // slice, continues to the one-shot CRC of the whole.
  std::string bytes;
  for (std::size_t i = 0; i < 100; ++i) {
    bytes.push_back(static_cast<char>((i * 197 + 3) & 0xFF));
  }
  const std::uint32_t whole = crc32(bytes);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string_view all(bytes);
    EXPECT_EQ(crc32(all.substr(cut), crc32(all.substr(0, cut))), whole)
        << "cut=" << cut;
  }
  EXPECT_EQ(crc32("6789", crc32("12345")), 0xCBF43926u);
  EXPECT_EQ(crc32("", crc32("a")), crc32("a"));
}

TEST(BinioTest, FixedWidthRoundTrip) {
  binary_writer w;
  w.u8(0x7F);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  binary_reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x7Fu);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::signbit(r.f64()), true);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, FixedWidthLittleEndianLayout) {
  binary_writer w;
  w.u32(0x04030201u);
  w.u64(0x0807060504030201ull);
  const std::string bytes(w.bytes());
  ASSERT_EQ(bytes.size(), 12u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<unsigned>(bytes[i]), i + 1);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned>(bytes[4 + i]), i + 1);
  }
}

TEST(BinioTest, VarintRoundTripAtBoundaries) {
  binary_writer w;
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7F,
                                  0x80,
                                  0x3FFF,
                                  0x4000,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) w.varint(v);
  const std::int64_t signed_values[] = {
      0, -1, 1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : signed_values) w.svarint(v);
  binary_reader r(w.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  for (const std::int64_t v : signed_values) EXPECT_EQ(r.svarint(), v);
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, TruncatedReadsThrow) {
  binary_writer w;
  w.u64(42);
  const std::string bytes(w.bytes());
  for (std::size_t keep = 0; keep < 8; ++keep) {
    binary_reader r(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(r.u64(), invalid_argument_error) << "keep=" << keep;
  }
  binary_reader r2("\xFF");
  EXPECT_THROW(r2.varint(), invalid_argument_error);
}

TEST(BinioTest, CountIsBoundedByTheBytesLeft) {
  // A count followed by exactly 12 bytes: 12 one-byte items or 3 four-byte
  // items fit, one more of either does not.
  const auto reader_for = [](std::uint64_t n) {
    binary_writer w;
    w.varint(n);
    for (int i = 0; i < 12; ++i) w.u8(0);
    return w.take();
  };
  std::string bytes = reader_for(12);
  EXPECT_EQ(binary_reader(bytes).count(1), 12u);
  EXPECT_THROW(binary_reader(reader_for(13)).count(1), invalid_argument_error);
  bytes = reader_for(3);
  EXPECT_EQ(binary_reader(bytes).count(4), 3u);
  EXPECT_THROW(binary_reader(reader_for(4)).count(4), invalid_argument_error);
  // A zero count always fits, even with nothing after it.
  EXPECT_EQ(binary_reader(std::string(1, '\0')).count(9), 0u);
  // Counts whose byte total overflows 64 bits are rejected, not wrapped.
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 60, std::numeric_limits<std::uint64_t>::max()}) {
    binary_writer w;
    w.varint(huge);
    EXPECT_THROW(binary_reader(w.bytes()).count(16), invalid_argument_error);
    EXPECT_THROW(binary_reader(w.bytes()).count(1), invalid_argument_error);
  }
  // The count is consumed: the reader continues at the first item.
  bytes = reader_for(2);
  binary_reader r(bytes);
  ASSERT_EQ(r.count(6), 2u);
  EXPECT_EQ(r.pos(), 1u);
}

}  // namespace
}  // namespace clasp
