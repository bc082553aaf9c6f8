#include "tsdb/tsdb.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/frame.hpp"

namespace clasp {

std::optional<std::string> ts_series::tag(const std::string& key) const {
  const auto it = tags_.find(key);
  if (it == tags_.end()) return std::nullopt;
  return it->second;
}

void ts_series::append_new_run(hour_stamp at, double value) {
  if (!values_.empty() && at < last_) {
    throw invalid_argument_error("ts_series: out-of-order append");
  }
  runs_.push_back({at, values_.size()});
  try {
    values_.push_back(value);
  } catch (...) {
    runs_.pop_back();  // no run may end up without a point
    throw;
  }
  last_ = at;
}

ts_point_view ts_series::range(hour_stamp begin, hour_stamp end) const {
  return points().split(begin).second.split(end).first;
}

std::vector<double> ts_series::values_in(hour_stamp begin,
                                         hour_stamp end) const {
  const std::span<const double> v = range(begin, end).values();
  return {v.begin(), v.end()};
}

bool tag_filter::matches(const tag_set& tags) const {
  for (const auto& [k, v] : required) {
    const auto it = tags.find(k);
    if (it == tags.end() || it->second != v) return false;
  }
  return true;
}

std::string tsdb::series_key(const std::string& metric, const tag_set& tags) {
  std::string key = metric;
  for (const auto& [k, v] : tags) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

void tsdb::write(const std::string& metric, const tag_set& tags,
                 hour_stamp at, double value) {
  write(open_series(metric, tags), at, value);
}

series_ref tsdb::open_series(const std::string& metric, const tag_set& tags) {
  const std::string key = series_key(metric, tags);
  auto it = index_.find(key);
  if (it == index_.end()) {
    it = index_.emplace(key, series_.size()).first;
    series_.emplace_back(metric, tags);
    by_metric_[metric].push_back(series_.size() - 1);
  }
  return static_cast<series_ref>(it->second);
}

void tsdb::throw_bad_ref() { throw not_found_error("tsdb: bad series ref"); }

void tsdb::reserve(series_ref ref, std::size_t n) {
  if (ref >= series_.size()) throw_bad_ref();
  series_[ref].reserve(n);
}

const ts_series& tsdb::series_at(series_ref ref) const {
  if (ref >= series_.size()) throw not_found_error("tsdb: bad series ref");
  return series_[ref];
}

std::vector<const ts_series*> tsdb::query(const std::string& metric,
                                          const tag_filter& filter) const {
  std::vector<const ts_series*> out;
  const auto it = by_metric_.find(metric);
  if (it == by_metric_.end()) return out;
  for (const std::size_t idx : it->second) {
    if (filter.matches(series_[idx].tags())) out.push_back(&series_[idx]);
  }
  return out;
}

const ts_series* tsdb::find(const std::string& metric,
                            const tag_set& tags) const {
  const auto it = index_.find(series_key(metric, tags));
  if (it == index_.end()) return nullptr;
  return &series_[it->second];
}

std::vector<std::string> tsdb::tag_values(const std::string& metric,
                                          const std::string& key) const {
  std::vector<std::string> out;
  const auto it = by_metric_.find(metric);
  if (it == by_metric_.end()) return out;
  std::unordered_set<std::string> seen;
  for (const std::size_t idx : it->second) {
    if (const auto v = series_[idx].tag(key)) {
      if (seen.insert(*v).second) out.push_back(*v);
    }
  }
  return out;
}

namespace {

// RFC-4180 quoting for fields containing separators or quotes.
void write_csv_field(std::ostream& os, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    os << field;
    return;
  }
  os << '"';
  for (const char c : field) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

void tsdb::export_csv(std::ostream& os, const std::string& metric,
                      const tag_filter& filter) const {
  const auto matched = query(metric, filter);
  // Union of tag keys across matched series, sorted.
  std::set<std::string> keys;
  for (const ts_series* s : matched) {
    for (const auto& [k, v] : s->tags()) keys.insert(k);
  }
  os << "hour,value";
  for (const std::string& k : keys) {
    os << ',';
    write_csv_field(os, k);
  }
  os << '\n';
  for (const ts_series* s : matched) {
    for (const ts_point p : s->points()) {
      os << p.at.hours_since_epoch() << ',' << p.value;
      for (const std::string& k : keys) {
        os << ',';
        write_csv_field(os, s->tag(k).value_or(""));
      }
      os << '\n';
    }
  }
}

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x53544C43u;  // "CLTS" little-endian
constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

void tsdb::snapshot_to(std::ostream& os) const {
  const auto begin = std::chrono::steady_clock::now();
  crc_trailer_writer file(os);
  binary_writer& out = file.buffer();
  out.u32(kSnapshotMagic);
  out.u32(kSnapshotVersion);
  out.varint(series_.size());
  for (const ts_series& s : series_) {
    out.str(s.metric());
    out.varint(s.tags().size());
    for (const auto& [k, v] : s.tags()) {
      out.str(k);
      out.str(v);
    }
    out.varint(s.size());
    std::int64_t prev_hour = 0;
    for (const ts_point p : s.points()) {
      out.svarint(p.at.hours_since_epoch() - prev_hour);
      prev_hour = p.at.hours_since_epoch();
      out.f64(p.value);
    }
    file.spill();
  }
  const std::uint64_t total = file.close();
  if (!os) throw state_error("tsdb: snapshot write failed");
  if (obs::enabled()) {
    obs::metrics_registry& reg = obs::metrics_registry::instance();
    reg.get_counter(obs::family::kTsdbSnapshots).add(1);
    reg.get_counter(obs::family::kTsdbSnapshotBytes).add(total);
    reg.get_histogram(obs::family::kTsdbSnapshotSeconds,
                      obs::duration_buckets())
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - begin)
                     .count());
  }
}

void tsdb::snapshot_to(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw not_found_error("tsdb: cannot write snapshot " + path);
  snapshot_to(static_cast<std::ostream&>(out));
}

void tsdb::restore_from(std::istream& is) {
  // Every count is bounded by the bytes left, so the stream is sized
  // first; it is then read once, a chunk at a time.
  const std::istream::pos_type start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(start);
  if (start == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1) || !is) {
    throw invalid_argument_error("tsdb snapshot: cannot size the stream");
  }
  restore_stream(is, static_cast<std::uint64_t>(end - start),
                 "tsdb snapshot");
}

void tsdb::restore_from(const std::string& path) {
  // Sized from the file. Anything but a regular file (a directory, say)
  // sizes as empty, hence "truncated", rather than as its seek reports.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw not_found_error("cannot read " + path);
  restore_stream(in, ec ? 0 : static_cast<std::uint64_t>(size), path);
}

void tsdb::restore_stream(std::istream& is, std::uint64_t bytes,
                          const std::string& what) {
  obs::metrics_registry::instance()
      .get_counter(obs::family::kTsdbRestores)
      .add(1);
  // Decoded a window at a time under the running CRC, the way
  // snapshot_to writes, into local state swapped in only once the
  // trailer matched: a failed restore never clobbers the store.
  crc_trailer_reader file(is, bytes, what);
  binary_reader& in = file.window(8);
  if (in.u32() != kSnapshotMagic) {
    throw invalid_argument_error("tsdb: bad snapshot magic");
  }
  if (in.u32() != kSnapshotVersion) {
    throw invalid_argument_error("tsdb: unsupported snapshot version");
  }
  std::vector<ts_series> series;
  std::unordered_map<std::string, std::size_t> index;
  std::unordered_map<std::string, std::vector<std::size_t>> by_metric;
  // Each series is at least a metric string, a tag count and a point count.
  const std::size_t n_series = file.count(3);
  series.reserve(n_series);
  // A point is an svarint hour delta and an f64.
  constexpr std::size_t kMaxPointBytes = kMaxVarintBytes + 8;
  for (std::size_t i = 0; i < n_series; ++i) {
    std::string metric = file.str();
    tag_set tags;
    const std::uint64_t n_tags = file.window(kMaxVarintBytes).varint();
    for (std::uint64_t t = 0; t < n_tags; ++t) {
      std::string key = file.str();
      tags.emplace(std::move(key), file.str());
    }
    ts_series s(metric, tags);
    // Each point is at least a 1-byte hour delta and an f64, so a hostile
    // count is refused here before it can size the column.
    const std::size_t n_points = file.count(9);
    s.reserve(n_points);
    std::int64_t prev_hour = 0;
    for (std::size_t p = 0; p < n_points; ++p) {
      if (in.left() < kMaxPointBytes) file.window(kMaxPointBytes);
      if (__builtin_add_overflow(prev_hour, in.svarint(), &prev_hour)) {
        throw invalid_argument_error("tsdb: snapshot hour out of range");
      }
      s.append(hour_stamp{prev_hour}, in.f64());
    }
    index.emplace(series_key(metric, tags), series.size());
    by_metric[metric].push_back(series.size());
    series.push_back(std::move(s));
  }
  if (!file.done()) {
    throw invalid_argument_error("tsdb: trailing bytes in snapshot");
  }
  file.close();
  series_ = std::move(series);
  index_ = std::move(index);
  by_metric_ = std::move(by_metric);
}

std::size_t tsdb::point_count() const {
  std::size_t n = 0;
  for (const ts_series& s : series_) n += s.size();
  return n;
}

}  // namespace clasp
