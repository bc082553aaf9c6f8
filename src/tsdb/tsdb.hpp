// Embedded tag-indexed time-series store (InfluxDB analogue).
//
// The campaign indexes every measurement as (metric, tags, hour, value).
// Series are identified by metric name plus a sorted tag set; queries
// filter by metric and tag equality and can group results by tag or
// aggregate over time ranges. The store is append-only in time order.
//
// Each series is columnar: one contiguous column of 8-byte values plus
// a short list of hour runs. A run is (first hour, first index): point i
// of the run sits at first + (i - index), up to the next run's index. A
// campaign series gets one point per hour, so it is a single run and
// costs 8 bytes per point; a gap or an equal-hour append starts a new
// run. Range scans walk the runs, not the points. The layout stays
// private: readers see points through ts_point_view, whose iterator
// yields (hour, value) pairs by value, or scan values() directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"

namespace clasp {

// Sorted tag set ("region" -> "us-west1", "server" -> "123", ...).
using tag_set = std::map<std::string, std::string>;

struct ts_point {
  hour_stamp at;
  double value{0.0};
};

// Consecutive hours from `first`, starting at point `index` (see above).
struct hour_run {
  hour_stamp first;
  std::size_t index{0};
};

// Read-only view of points [begin, end) of one series. Valid until the
// series is next appended to. Indexing and front/back find the point's
// run by binary search; iteration walks the runs in step.
class ts_point_view {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = ts_point;
    using difference_type = std::ptrdiff_t;
    using reference = ts_point;

    iterator() = default;

    ts_point operator*() const {
      return {run_->first + static_cast<std::int64_t>(i_ - run_->index),
              values_[i_]};
    }
    iterator& operator++() {
      ++i_;
      if (run_ + 1 != runs_end_ && run_[1].index == i_) ++run_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    friend class ts_point_view;
    iterator(const double* values, std::size_t i, const hour_run* run,
             const hour_run* runs_end)
        : values_(values), i_(i), run_(run), runs_end_(runs_end) {}

    const double* values_{nullptr};
    std::size_t i_{0};
    const hour_run* run_{nullptr};
    const hour_run* runs_end_{nullptr};
  };

  ts_point_view() = default;

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  ts_point operator[](std::size_t i) const {
    const std::size_t idx = begin_ + i;
    const hour_run* r = run_;
    if (r + 1 != runs_end_ && r[1].index <= idx) {
      r = std::upper_bound(r + 1, runs_end_, idx,
                           [](std::size_t x, const hour_run& run) {
                             return x < run.index;
                           }) -
          1;
    }
    return {r->first + static_cast<std::int64_t>(idx - r->index),
            values_[idx]};
  }
  ts_point front() const { return (*this)[0]; }
  ts_point back() const { return (*this)[size() - 1]; }
  iterator begin() const { return {values_, begin_, run_, runs_end_}; }
  iterator end() const { return {values_, end_, run_, runs_end_}; }
  // The viewed values, contiguous, in time order.
  std::span<const double> values() const {
    return {values_ + begin_, size()};
  }
  // Splits the view at its first point at or after `at` into (the points
  // before, the rest). Walks the runs forward from the view's first, so
  // cutting a view into consecutive pieces is one pass over its runs.
  // Inline: the analysis scans cut every series day by day through this.
  std::pair<ts_point_view, ts_point_view> split(hour_stamp at) const {
    std::size_t cut = end_;
    const hour_run* r = run_;
    for (; r != runs_end_ && r->index < end_; ++r) {
      const std::size_t run_end =
          r + 1 != runs_end_ ? std::min(r[1].index, end_) : end_;
      const hour_stamp last =
          r->first + static_cast<std::int64_t>(run_end - 1 - r->index);
      if (!(last < at)) {
        const std::size_t from =
            r->first < at
                ? r->index + static_cast<std::size_t>(at - r->first)
                : r->index;
        cut = std::max(begin_, from);
        break;
      }
    }
    if (r == runs_end_) r = run_;  // the rest is empty; any run will do
    return {{values_, begin_, cut, run_, runs_end_},
            {values_, cut, end_, r, runs_end_}};
  }

 private:
  friend class ts_series;
  // `run` must be the run holding point `begin` (any run when empty).
  ts_point_view(const double* values, std::size_t begin, std::size_t end,
                const hour_run* run, const hour_run* runs_end)
      : values_(values), begin_(begin), end_(end), run_(run),
        runs_end_(runs_end) {}

  const double* values_{nullptr};
  std::size_t begin_{0};
  std::size_t end_{0};
  const hour_run* run_{nullptr};
  const hour_run* runs_end_{nullptr};
};

// A single series: metric + tags + points.
class ts_series {
 public:
  ts_series(std::string metric, tag_set tags)
      : metric_(std::move(metric)), tags_(std::move(tags)) {}

  const std::string& metric() const { return metric_; }
  const tag_set& tags() const { return tags_; }
  ts_point_view points() const {
    return {values_.data(), 0, values_.size(), runs_.data(),
            runs_.data() + runs_.size()};
  }
  // Every value in time order.
  std::span<const double> values() const { return values_; }
  std::size_t size() const { return values_.size(); }

  // Tag value or nullopt.
  std::optional<std::string> tag(const std::string& key) const;

  // Inline: a campaign hour appends hundreds of points through this. The
  // next consecutive hour extends the open run and touches only this
  // object and the values tail; anything else goes out of line.
  void append(hour_stamp at, double value) {
    if (values_.empty() || !(last_ < at) ||
        at.hours_since_epoch() - 1 != last_.hours_since_epoch()) {
      append_new_run(at, value);
      return;
    }
    values_.push_back(value);
    last_ = at;
  }

  // Capacity for `n` points in total, so appends up to it never move the
  // column (nothing is written).
  void reserve(std::size_t n) { values_.reserve(n); }

  // Hint that append() is about to run: pulls the values tail into cache.
  // Purely advisory — correct (and cheap) on an empty series too.
  void prefetch_tail() const {
    __builtin_prefetch(values_.data() + values_.size(), 1);
  }

  // Points with begin <= at < end. Requires time-ordered appends (the
  // store enforces this).
  ts_point_view range(hour_stamp begin, hour_stamp end) const;

  // All raw values in a range.
  std::vector<double> values_in(hour_stamp begin, hour_stamp end) const;

 private:
  // append() for a point that opens a run. Throws on an out-of-order
  // append, and leaves the series unchanged on any throw.
  void append_new_run(hour_stamp at, double value);

  std::string metric_;
  tag_set tags_;
  std::vector<double> values_;
  std::vector<hour_run> runs_;  // back() is the open run
  hour_stamp last_;             // hour of the last point (if any)
};

// Equality filter used by queries; empty matches everything.
struct tag_filter {
  tag_set required;
  bool matches(const tag_set& tags) const;
};

// Stable handle to a series, resolved once via tsdb::open_series. The
// campaign hot loop writes through refs so appends cost no string
// formatting and no hash-map lookup.
using series_ref = std::uint32_t;

class tsdb {
 public:
  // Append a point; creates the series on first use. Throws
  // invalid_argument_error when `at` precedes the series' last point
  // (campaigns write in time order).
  void write(const std::string& metric, const tag_set& tags, hour_stamp at,
             double value);

  // Intern a tag set: resolve (metric, tags) to a stable ref, creating
  // an empty series on first use. Refs stay valid for the store's
  // lifetime.
  series_ref open_series(const std::string& metric, const tag_set& tags);

  // Append through an interned ref (the campaign fast path). Same
  // time-order contract as the string-keyed overload. Inline: commit
  // merges every staged point of an hour through here.
  void write(series_ref ref, hour_stamp at, double value) {
    if (ref >= series_.size()) throw_bad_ref();
    series_[ref].append(at, value);
  }

  // Size a series' value column for `n` points in total (see
  // ts_series::reserve). Campaigns reserve their window at deploy, so a
  // series grows without doubling slack. Throws not_found_error on a bad
  // ref.
  void reserve(series_ref ref, std::size_t n);

  // Advisory cache warm-up for a ref an imminent write() will hit. The
  // commit loop appends to thousands of distinct series per hour, each
  // tail a cold line; prefetching a few refs ahead hides the miss
  // latency. A bad ref is silently ignored (no side effects).
  void prefetch(series_ref ref) const {
    if (ref < series_.size()) series_[ref].prefetch_tail();
  }

  // The series behind a ref (throws not_found_error on a bad ref).
  const ts_series& series_at(series_ref ref) const;

  // All series for a metric matching the filter.
  std::vector<const ts_series*> query(const std::string& metric,
                                      const tag_filter& filter = {}) const;

  // The single series with exactly these tags, or nullptr.
  const ts_series* find(const std::string& metric, const tag_set& tags) const;

  // Distinct values of `key` across a metric's series.
  std::vector<std::string> tag_values(const std::string& metric,
                                      const std::string& key) const;

  std::size_t series_count() const { return series_.size(); }
  std::size_t point_count() const;

  // Grafana-style CSV export: one row per point, tag columns in sorted
  // key order ("hour,value,<tag keys...>"). Rows come from every series
  // of the metric matching the filter.
  void export_csv(std::ostream& os, const std::string& metric,
                  const tag_filter& filter = {}) const;

  // --- durability (see DESIGN.md, "Durability & crash recovery") ---
  // Binary full snapshot: magic + version, every series in insertion
  // order (so restored series_refs equal the originals), strings carried
  // length-prefixed (non-ASCII tag values round-trip exactly), values as
  // IEEE-754 bit patterns, the whole payload closed by a CRC32 trailer
  // (util/frame.hpp). snapshot_to streams series by series through the
  // codec's bounded buffer, so a snapshot never holds the payload in
  // memory. restore_from replaces the store's contents, sizes each value
  // column exactly, and throws invalid_argument_error on a corrupt,
  // truncated or version-mismatched snapshot. It reads the same way, a
  // chunk at a time under a running CRC, so a restore never holds the
  // file beside the store it builds; the stream overload therefore
  // needs a seekable stream. The path overloads throw not_found_error
  // when the file cannot be opened.
  void snapshot_to(std::ostream& os) const;
  void snapshot_to(const std::string& path) const;
  void restore_from(std::istream& is);
  void restore_from(const std::string& path);

 private:
  static std::string series_key(const std::string& metric,
                                const tag_set& tags);
  // The restore proper, over a stream of `bytes` bytes (payload and
  // trailer); errors name `what`.
  void restore_stream(std::istream& is, std::uint64_t bytes,
                      const std::string& what);
  [[noreturn]] static void throw_bad_ref();

  std::vector<ts_series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_metric_;
};

}  // namespace clasp
