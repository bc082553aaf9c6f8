// Wire protocol for distributed campaign replay.
//
// One message type covers the whole conversation; the tag decides which
// fields are meaningful. The flow per worker:
//
//   worker → coordinator   hello      shard, slot range, start hour,
//                                     campaign fingerprint
//   worker → coordinator   heartbeat  shard, hour being staged
//   worker → coordinator   hour_group shard, hour, encoded VM-hour records
//                                     for every slot in the shard
//   coordinator → worker   ack        hour committed — advance
//   coordinator → worker   resend     hour's group was damaged — send it
//                                     again (the deterministic streams
//                                     make the retry byte-identical)
//   coordinator → worker   stop       wind down now
//   worker → coordinator   bye        shard finished its range
//
// Group records carry their own CRC32 inside the message payload, on top
// of the channel's frame CRC: a frame can be reframed byte-perfect while
// a record inside it was damaged before framing (the corrupt_group chaos
// knob does exactly that), and the per-record CRC catches it as a typed
// corruption_error instead of letting a damaged record decode.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clasp::dist {

enum class msg_type : std::uint8_t {
  hello = 'H',
  heartbeat = 'B',
  hour_group = 'G',
  ack = 'A',
  resend = 'R',
  stop = 'S',
  bye = 'Y',
};

struct dist_message {
  msg_type type{msg_type::heartbeat};
  std::uint32_t shard{0};
  std::int64_t hour{0};
  // hello only: identity + assignment echo.
  std::uint64_t fingerprint{0};
  std::uint32_t slot_begin{0};
  std::uint32_t slot_end{0};
  // hour_group only: one encoded VM-hour record per slot, ascending.
  std::vector<std::string> records;
};

std::string encode_message(const dist_message& m);

// Throws corruption_error when a group record fails its per-record CRC,
// invalid_argument_error on a malformed message (unknown tag, truncated
// fields, trailing bytes).
dist_message decode_message(std::string_view payload);

}  // namespace clasp::dist
