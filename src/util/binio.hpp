// Bit-exact binary serialization primitives for durability code.
//
// The checkpoint layer must round-trip campaign state byte-for-byte:
// doubles are carried as their IEEE-754 bit patterns (never reformatted
// through text), integers as LEB128 varints, and strings length-prefixed
// so arbitrary bytes (non-ASCII server names, embedded separators) are
// safe. Every on-disk artifact is framed or trailed with the CRC32 below
// (util/frame.hpp) so torn or corrupted files are detected before any
// state is trusted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace clasp {

// CRC-32 (IEEE 802.3 polynomial, reflected): the checksum of the frame
// and trailer codec in util/frame.hpp, and of the shard protocol's
// per-record check (dist/protocol.cpp). Pass
// the CRC of the bytes before to continue it: crc32(b, crc32(a)) equals
// crc32 of a followed by b, so a payload can be checksummed in chunks.
std::uint32_t crc32(std::string_view bytes, std::uint32_t crc = 0);

// Append-only little-endian encoder over a growable byte buffer.
class binary_writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // Unsigned LEB128.
  void varint(std::uint64_t v);
  // Zigzag-encoded signed varint.
  void svarint(std::int64_t v);
  // IEEE-754 bit pattern; round-trips every double (including -0.0, inf
  // and NaN payloads) exactly.
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  // Length-prefixed bytes; content is opaque (UTF-8, '\0', anything).
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  // Drops the bytes but keeps the capacity, for chunked encoding.
  void clear() { buf_.clear(); }

 private:
  std::string buf_;
};

// The longest varint binary_writer emits (a 64-bit value).
inline constexpr std::size_t kMaxVarintBytes = 10;

// The check behind binary_reader::count, for decoders that know the
// bytes left some other way: returns `n` when n items of at least
// `min_item_bytes` (>= 1) bytes each fit in `left` bytes, and throws
// invalid_argument_error otherwise.
std::size_t check_count(std::uint64_t n, std::uint64_t left,
                        std::size_t min_item_bytes);

// Decoder matching binary_writer. Throws invalid_argument_error on
// truncated input or varint overflow; the caller is expected to have
// CRC-validated the buffer first, so a throw here means a logic (format)
// error, not silent corruption.
class binary_reader {
 public:
  explicit binary_reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  std::int64_t svarint();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  // A varint element count for a sequence whose items each encode to at
  // least `min_item_bytes` (>= 1) bytes. Throws invalid_argument_error
  // when count x min_item_bytes exceeds the bytes left, so a corrupt or
  // hostile count can never drive a reserve() or a loop past the input.
  std::size_t count(std::size_t min_item_bytes);

  bool done() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }
  std::size_t left() const { return bytes_.size() - pos_; }

 private:
  [[noreturn]] static void throw_truncated();

  std::string_view bytes_;
  std::size_t pos_{0};
};

}  // namespace clasp
