#include "svc/registry.hpp"

#include <filesystem>

#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

namespace clasp::svc {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kRegistryMagic = 0x47455243u;  // "CREG" little-endian
constexpr std::uint32_t kRegistryVersion = 1;

bool legal_transition(campaign_state from, campaign_state to) {
  switch (from) {
    case campaign_state::queued:
      return to == campaign_state::admitted || to == campaign_state::cancelled;
    case campaign_state::admitted:
      return to == campaign_state::running || to == campaign_state::paused ||
             to == campaign_state::cancelled;
    case campaign_state::running:
      return to == campaign_state::paused || to == campaign_state::done ||
             to == campaign_state::failed || to == campaign_state::cancelled;
    case campaign_state::paused:
      return to == campaign_state::queued || to == campaign_state::cancelled;
    case campaign_state::done:
    case campaign_state::failed:
    case campaign_state::cancelled:
      return false;  // terminal
  }
  return false;
}

campaign_state state_from_u8(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(campaign_state::cancelled)) {
    throw invalid_argument_error("svc: registry holds unknown state " +
                                 std::to_string(raw));
  }
  return static_cast<campaign_state>(raw);
}

}  // namespace

const char* to_string(campaign_state state) {
  switch (state) {
    case campaign_state::queued: return "queued";
    case campaign_state::admitted: return "admitted";
    case campaign_state::running: return "running";
    case campaign_state::paused: return "paused";
    case campaign_state::done: return "done";
    case campaign_state::failed: return "failed";
    case campaign_state::cancelled: return "cancelled";
  }
  return "unknown";
}

bool state_active(campaign_state state) {
  return state == campaign_state::queued ||
         state == campaign_state::admitted ||
         state == campaign_state::running || state == campaign_state::paused;
}

campaign_record& campaign_registry::submit(const std::string& tenant,
                                           campaign_spec spec) {
  if (tenant.empty()) {
    throw invalid_argument_error("svc: submission needs a tenant name");
  }
  validate_spec(spec);
  const std::uint64_t id = next_id_;
  if (spec.seed == 0) {
    // Service-assigned seed: deterministic in (tenant, id), so a
    // restarted daemon reports the same seed, and never 0 (0 would
    // re-trigger assignment on a future decode).
    spec.seed = hash_tag(hash_tag(0x5eedull, tenant), std::to_string(id));
    if (spec.seed == 0) spec.seed = 1;
  }
  const std::uint64_t fp = spec_fingerprint(spec);
  for (const auto& [other_id, rec] : records_) {
    if (rec.tenant == tenant && rec.fingerprint == fp &&
        state_active(rec.state)) {
      throw state_error("svc: tenant " + tenant +
                        " already has this campaign active as id " +
                        std::to_string(other_id) +
                        " (cancel it or change the spec)");
    }
  }
  campaign_record rec;
  rec.id = id;
  rec.tenant = tenant;
  rec.spec = std::move(spec);
  rec.fingerprint = fp;
  rec.state = campaign_state::queued;
  rec.submit_seq = next_seq_;
  rec.cursor_hours = spec_window(rec.spec).begin_at.hours_since_epoch();
  next_id_ += 1;
  next_seq_ += 1;
  dirty_ = true;
  return records_.emplace(id, std::move(rec)).first->second;
}

bool campaign_registry::contains(std::uint64_t id) const {
  return records_.count(id) != 0;
}

campaign_record& campaign_registry::record(std::uint64_t id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    throw not_found_error("svc: no campaign with id " + std::to_string(id));
  }
  return it->second;
}

const campaign_record& campaign_registry::record(std::uint64_t id) const {
  return const_cast<campaign_registry*>(this)->record(id);
}

void campaign_registry::transition(std::uint64_t id, campaign_state to) {
  campaign_record& rec = record(id);
  if (!legal_transition(rec.state, to)) {
    throw state_error("svc: campaign " + std::to_string(id) + " cannot go " +
                      to_string(rec.state) + " -> " + to_string(to));
  }
  rec.state = to;
  dirty_ = true;
}

void campaign_registry::fail(std::uint64_t id, std::string why) {
  campaign_record& rec = record(id);
  if (!state_active(rec.state)) {
    throw state_error("svc: campaign " + std::to_string(id) +
                      " is terminal (" + to_string(rec.state) +
                      "), cannot fail it");
  }
  rec.state = campaign_state::failed;
  rec.error = std::move(why);
  dirty_ = true;
}

std::vector<std::uint64_t> campaign_registry::ids() const {
  std::vector<std::uint64_t> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(id);
  return out;
}

std::vector<std::uint64_t> campaign_registry::in_state(
    campaign_state state) const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, rec] : records_) {
    if (rec.state == state) out.push_back(id);
  }
  return out;
}

std::size_t campaign_registry::count(campaign_state state) const {
  std::size_t n = 0;
  for (const auto& [id, rec] : records_) {
    if (rec.state == state) n += 1;
  }
  return n;
}

std::size_t campaign_registry::active_count() const {
  std::size_t n = 0;
  for (const auto& [id, rec] : records_) {
    if (state_active(rec.state)) n += 1;
  }
  return n;
}

std::size_t campaign_registry::active_count(const std::string& tenant) const {
  std::size_t n = 0;
  for (const auto& [id, rec] : records_) {
    if (rec.tenant == tenant && state_active(rec.state)) n += 1;
  }
  return n;
}

void campaign_registry::reset_transients() {
  for (auto& [id, rec] : records_) {
    if (rec.state == campaign_state::admitted ||
        rec.state == campaign_state::running) {
      rec.state = campaign_state::queued;
    }
  }
}

std::string campaign_registry::encode() const {
  binary_writer out;
  out.u32(kRegistryMagic);
  out.u32(kRegistryVersion);
  out.u64(next_id_);
  out.u64(next_seq_);
  out.varint(records_.size());
  for (const auto& [id, rec] : records_) {
    out.u64(rec.id);
    out.str(rec.tenant);
    out.str(encode_spec(rec.spec));
    out.u64(rec.fingerprint);
    out.u8(static_cast<std::uint8_t>(rec.state));
    out.u64(rec.submit_seq);
    out.svarint(rec.cursor_hours);
    out.varint(rec.preemptions);
    out.str(rec.error);
  }
  return std::string(out.bytes());
}

campaign_registry campaign_registry::decode(std::string_view payload) {
  binary_reader in(payload);
  if (in.u32() != kRegistryMagic) {
    throw invalid_argument_error("svc: registry snapshot has bad magic");
  }
  const std::uint32_t version = in.u32();
  if (version != kRegistryVersion) {
    throw invalid_argument_error("svc: registry snapshot version " +
                                 std::to_string(version) + " unsupported");
  }
  campaign_registry reg;
  reg.next_id_ = in.u64();
  reg.next_seq_ = in.u64();
  const std::uint64_t count = in.varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    campaign_record rec;
    rec.id = in.u64();
    rec.tenant = in.str();
    rec.spec = decode_spec(in.str());
    rec.fingerprint = in.u64();
    rec.state = state_from_u8(in.u8());
    rec.submit_seq = in.u64();
    rec.cursor_hours = in.svarint();
    rec.preemptions = in.varint();
    rec.error = in.str();
    reg.records_.emplace(rec.id, std::move(rec));
  }
  if (!in.done()) {
    throw invalid_argument_error("svc: trailing bytes in registry snapshot");
  }
  return reg;
}

void campaign_registry::save(const std::string& path) const {
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  const fs::path tmp = target.string() + ".tmp";
  write_crc_file(tmp.string(), encode());
  fs::rename(tmp, target);
  dirty_ = false;
}

std::optional<campaign_registry> campaign_registry::load(
    const std::string& path) {
  if (!fs::exists(path)) return std::nullopt;
  return decode(read_crc_file(path));
}

}  // namespace clasp::svc
