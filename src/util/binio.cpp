#include "util/binio.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace clasp {

namespace {

// Slicing-by-8 CRC32 (polynomial 0xEDB88320): table[s][b] advances a
// byte b through s+1 zero bytes, letting the hot loop fold eight input
// bytes per iteration. Checkpoint snapshots and wire frames CRC every
// payload, so this sits on the durability fast path.
using crc_tables = std::array<std::array<std::uint32_t, 256>, 8>;

crc_tables make_crc_tables() {
  crc_tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t s = 1; s < 8; ++s) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[s][i] = c;
    }
  }
  return t;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t crc) {
  static const crc_tables kT = make_crc_tables();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
          kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^
          kT[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; --n, ++p) {
    c = kT[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void binary_writer::u32(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    char b[4];
    std::memcpy(b, &v, 4);
    buf_.append(b, 4);
  } else {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
}

void binary_writer::u64(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    char b[8];
    std::memcpy(b, &v, 8);
    buf_.append(b, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
}

void binary_writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>(static_cast<std::uint8_t>(v) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void binary_writer::svarint(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void binary_writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void binary_writer::str(std::string_view s) {
  varint(s.size());
  buf_.append(s);
}

void binary_reader::throw_truncated() {
  throw invalid_argument_error("binio: truncated input");
}

std::uint8_t binary_reader::u8() {
  if (pos_ >= bytes_.size()) throw_truncated();
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t binary_reader::u32() {
  if constexpr (std::endian::native == std::endian::little) {
    if (bytes_.size() - pos_ < 4) throw_truncated();
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    }
    return v;
  }
}

std::uint64_t binary_reader::u64() {
  if constexpr (std::endian::native == std::endian::little) {
    if (bytes_.size() - pos_ < 8) throw_truncated();
    std::uint64_t v;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }
}

std::uint64_t binary_reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw invalid_argument_error("binio: varint overflow");
  }
}

std::int64_t binary_reader::svarint() {
  const std::uint64_t v = varint();
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

double binary_reader::f64() { return std::bit_cast<double>(u64()); }

std::size_t check_count(std::uint64_t n, std::uint64_t left,
                        std::size_t min_item_bytes) {
  if (n > left / std::max<std::size_t>(min_item_bytes, 1)) {
    throw invalid_argument_error("binio: count " + std::to_string(n) +
                                 " exceeds the " + std::to_string(left) +
                                 " bytes left");
  }
  return static_cast<std::size_t>(n);
}

std::size_t binary_reader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = varint();
  return check_count(n, left(), min_item_bytes);
}

std::string binary_reader::str() {
  const std::uint64_t n = varint();
  if (n > bytes_.size() - pos_) throw_truncated();
  std::string out(bytes_.substr(pos_, static_cast<std::size_t>(n)));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

}  // namespace clasp
