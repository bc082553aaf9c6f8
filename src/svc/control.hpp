// Control plane for the campaign service daemon.
//
// One request/one reply per connection round: the client sends a framed
// control_request over the daemon's unix socket (one dist::fd_channel
// frame of the shared codec, util/frame.hpp, so control messages inherit
// the CRC discipline the shard protocol uses), the daemon answers with a
// control_reply and the client disconnects. Payloads are versioned binio
// like every other wire format in the tree; decode throws
// invalid_argument_error on anything malformed, and the daemon turns
// that into an error reply instead of dying.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/registry.hpp"

namespace clasp::svc {

enum class control_op : std::uint8_t {
  submit = 0,    // tenant + spec -> id
  status = 1,    // id == 0: service summary + all campaigns; else one
  pause = 2,     // id
  resume = 3,    // id
  cancel = 4,    // id
  shutdown = 5,  // graceful drain + exit
};

const char* to_string(control_op op);

struct control_request {
  control_op op{control_op::status};
  std::string tenant;        // submit (and audit on the rest)
  std::uint64_t id{0};       // pause/resume/cancel/status target
  campaign_spec spec;        // submit only
};

// One campaign's externally visible state.
struct campaign_status {
  std::uint64_t id{0};
  std::string tenant;
  std::string state;      // to_string(campaign_state)
  std::string region;
  int days{0};
  std::uint64_t seed{0};
  int workers{-1};
  int shards{-1};
  bool durable{true};
  std::int64_t cursor_hours{0};
  std::int64_t begin_hours{0};
  std::int64_t end_hours{0};
  std::uint64_t preemptions{0};
  std::string error;
};

// The daemon's own gauges, piggybacked on every status reply.
struct service_status {
  std::uint64_t queued{0};
  std::uint64_t admitted{0};
  std::uint64_t running{0};
  std::uint64_t paused{0};
  std::uint64_t done{0};
  std::uint64_t failed{0};
  std::uint64_t cancelled{0};
  std::uint64_t worker_budget{0};
  std::uint64_t reserved_units{0};
  std::uint64_t resident{0};
  std::uint64_t quanta{0};
  std::uint64_t preemptions{0};
  std::uint64_t evictions{0};
  std::uint64_t cold_starts{0};
  std::uint64_t warm_resumes{0};
};

struct control_reply {
  bool ok{false};
  std::string error;     // set when !ok (typed message text)
  std::uint64_t id{0};   // submit: the assigned campaign id
  service_status service;
  std::vector<campaign_status> campaigns;
};

// Versioned wire codecs. decode_* throw invalid_argument_error on
// malformed or version-mismatched payloads.
std::string encode_request(const control_request& req);
control_request decode_request(std::string_view payload);
std::string encode_reply(const control_reply& reply);
control_reply decode_reply(std::string_view payload);

// Client side: one connect/call round against a daemon socket. Throws
// state_error when nothing listens, the call times out, or the daemon
// hangs up mid-reply.
class control_client {
 public:
  explicit control_client(std::string socket_path);

  control_reply call(const control_request& req, int timeout_ms = 30000);

  const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
};

}  // namespace clasp::svc
