#include "dist/protocol.hpp"

#include "util/binio.hpp"
#include "util/error.hpp"

namespace clasp::dist {

std::string encode_message(const dist_message& m) {
  binary_writer out;
  out.u8(static_cast<std::uint8_t>(m.type));
  out.varint(m.shard);
  out.svarint(m.hour);
  switch (m.type) {
    case msg_type::hello:
      out.u64(m.fingerprint);
      out.varint(m.slot_begin);
      out.varint(m.slot_end);
      break;
    case msg_type::hour_group:
      out.varint(m.records.size());
      for (const std::string& record : m.records) {
        out.u32(crc32(record));
        out.str(record);
      }
      break;
    case msg_type::heartbeat:
    case msg_type::ack:
    case msg_type::resend:
    case msg_type::stop:
    case msg_type::bye:
      break;
  }
  return out.take();
}

dist_message decode_message(std::string_view payload) {
  binary_reader in(payload);
  dist_message m;
  const std::uint8_t tag = in.u8();
  switch (tag) {
    case 'H':
    case 'B':
    case 'G':
    case 'A':
    case 'R':
    case 'S':
    case 'Y':
      m.type = static_cast<msg_type>(tag);
      break;
    default:
      throw invalid_argument_error("dist protocol: unknown message tag");
  }
  m.shard = static_cast<std::uint32_t>(in.varint());
  m.hour = in.svarint();
  if (m.type == msg_type::hello) {
    m.fingerprint = in.u64();
    m.slot_begin = static_cast<std::uint32_t>(in.varint());
    m.slot_end = static_cast<std::uint32_t>(in.varint());
  } else if (m.type == msg_type::hour_group) {
    // Each record is a u32 CRC plus a length-prefixed string.
    const std::size_t count = in.count(5);
    m.records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t expect_crc = in.u32();
      std::string record = in.str();
      if (crc32(record) != expect_crc) {
        throw corruption_error(
            "dist protocol: group record failed its CRC (record " +
            std::to_string(i) + " of hour " + std::to_string(m.hour) + ")");
      }
      m.records.push_back(std::move(record));
    }
  }
  if (!in.done()) {
    throw invalid_argument_error("dist protocol: trailing bytes in message");
  }
  return m;
}

}  // namespace clasp::dist
