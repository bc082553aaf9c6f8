#include "svc/control.hpp"

#include "dist/channel.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

namespace clasp::svc {

namespace {

constexpr std::uint32_t kControlMagic = 0x4C525443u;  // "CTRL" little-endian
constexpr std::uint32_t kControlVersion = 1;

void write_header(binary_writer& out) {
  out.u32(kControlMagic);
  out.u32(kControlVersion);
}

binary_reader read_header(std::string_view payload, const char* what) {
  binary_reader in(payload);
  if (in.u32() != kControlMagic) {
    throw invalid_argument_error(std::string("svc control: ") + what +
                                 " has bad magic");
  }
  const std::uint32_t version = in.u32();
  if (version != kControlVersion) {
    throw invalid_argument_error(std::string("svc control: ") + what +
                                 " version " + std::to_string(version) +
                                 " unsupported");
  }
  return in;
}

control_op op_from_u8(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(control_op::shutdown)) {
    throw invalid_argument_error("svc control: unknown op " +
                                 std::to_string(raw));
  }
  return static_cast<control_op>(raw);
}

}  // namespace

const char* to_string(control_op op) {
  switch (op) {
    case control_op::submit: return "submit";
    case control_op::status: return "status";
    case control_op::pause: return "pause";
    case control_op::resume: return "resume";
    case control_op::cancel: return "cancel";
    case control_op::shutdown: return "shutdown";
  }
  return "unknown";
}

std::string encode_request(const control_request& req) {
  binary_writer out;
  write_header(out);
  out.u8(static_cast<std::uint8_t>(req.op));
  out.str(req.tenant);
  out.u64(req.id);
  out.str(encode_spec(req.spec));
  return std::string(out.bytes());
}

control_request decode_request(std::string_view payload) {
  binary_reader in = read_header(payload, "request");
  control_request req;
  req.op = op_from_u8(in.u8());
  req.tenant = in.str();
  req.id = in.u64();
  req.spec = decode_spec(in.str());
  if (!in.done()) {
    throw invalid_argument_error("svc control: trailing bytes in request");
  }
  return req;
}

std::string encode_reply(const control_reply& reply) {
  binary_writer out;
  write_header(out);
  out.boolean(reply.ok);
  out.str(reply.error);
  out.u64(reply.id);
  const service_status& s = reply.service;
  out.varint(s.queued);
  out.varint(s.admitted);
  out.varint(s.running);
  out.varint(s.paused);
  out.varint(s.done);
  out.varint(s.failed);
  out.varint(s.cancelled);
  out.varint(s.worker_budget);
  out.varint(s.reserved_units);
  out.varint(s.resident);
  out.varint(s.quanta);
  out.varint(s.preemptions);
  out.varint(s.evictions);
  out.varint(s.cold_starts);
  out.varint(s.warm_resumes);
  out.varint(reply.campaigns.size());
  for (const campaign_status& c : reply.campaigns) {
    out.u64(c.id);
    out.str(c.tenant);
    out.str(c.state);
    out.str(c.region);
    out.svarint(c.days);
    out.u64(c.seed);
    out.svarint(c.workers);
    out.svarint(c.shards);
    out.boolean(c.durable);
    out.svarint(c.cursor_hours);
    out.svarint(c.begin_hours);
    out.svarint(c.end_hours);
    out.varint(c.preemptions);
    out.str(c.error);
  }
  return std::string(out.bytes());
}

control_reply decode_reply(std::string_view payload) {
  binary_reader in = read_header(payload, "reply");
  control_reply reply;
  reply.ok = in.boolean();
  reply.error = in.str();
  reply.id = in.u64();
  service_status& s = reply.service;
  s.queued = in.varint();
  s.admitted = in.varint();
  s.running = in.varint();
  s.paused = in.varint();
  s.done = in.varint();
  s.failed = in.varint();
  s.cancelled = in.varint();
  s.worker_budget = in.varint();
  s.reserved_units = in.varint();
  s.resident = in.varint();
  s.quanta = in.varint();
  s.preemptions = in.varint();
  s.evictions = in.varint();
  s.cold_starts = in.varint();
  s.warm_resumes = in.varint();
  // Each campaign encodes to at least 28 bytes: two u64s, a bool and
  // eleven varints or length prefixes.
  reply.campaigns.resize(in.count(28));
  for (campaign_status& c : reply.campaigns) {
    c.id = in.u64();
    c.tenant = in.str();
    c.state = in.str();
    c.region = in.str();
    c.days = static_cast<int>(in.svarint());
    c.seed = in.u64();
    c.workers = static_cast<int>(in.svarint());
    c.shards = static_cast<int>(in.svarint());
    c.durable = in.boolean();
    c.cursor_hours = in.svarint();
    c.begin_hours = in.svarint();
    c.end_hours = in.svarint();
    c.preemptions = in.varint();
    c.error = in.str();
  }
  if (!in.done()) {
    throw invalid_argument_error("svc control: trailing bytes in reply");
  }
  return reply;
}

control_client::control_client(std::string socket_path)
    : socket_path_(std::move(socket_path)) {}

control_reply control_client::call(const control_request& req,
                                   int timeout_ms) {
  const std::unique_ptr<dist::fd_channel> channel =
      dist::connect_unix(socket_path_);
  channel->send(encode_request(req));
  std::string payload;
  switch (channel->recv(payload, timeout_ms)) {
    case dist::recv_status::ok:
      return decode_reply(payload);
    case dist::recv_status::timeout:
      throw state_error("svc control: daemon did not reply within " +
                        std::to_string(timeout_ms) + " ms");
    case dist::recv_status::corrupt:
      throw state_error("svc control: reply failed its CRC");
    case dist::recv_status::closed:
      throw state_error("svc control: daemon hung up mid-reply");
  }
  throw state_error("svc control: unreachable recv status");
}

}  // namespace clasp::svc
