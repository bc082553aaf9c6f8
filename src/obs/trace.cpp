#include "obs/trace.hpp"

#include <time.h>

#include <chrono>

namespace clasp::obs {

const char* to_string(phase p) {
  switch (p) {
    case phase::deploy: return "deploy";
    case phase::begin_hour: return "begin_hour";
    case phase::prefill: return "prefill";
    case phase::stage: return "stage";
    case phase::commit: return "commit";
    case phase::checkpoint: return "checkpoint";
    case phase::resume: return "resume";
    case phase::analysis: return "analysis";
    case phase::world: return "world";
    case phase::select: return "select";
  }
  return "?";
}

std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

trace_ring& trace_ring::instance() {
  static trace_ring ring;
  return ring;
}

void trace_ring::record(const span_record& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(s);
  } else {
    ring_[next_] = s;
    next_ = (next_ + 1) % capacity_;
  }
  phase_rollup& r = rollups_[static_cast<std::size_t>(s.ph)];
  ++r.count;
  r.wall_ns += s.wall_ns;
  r.cpu_ns += s.cpu_ns;
  if (s.wall_ns > r.max_wall_ns) r.max_wall_ns = s.wall_ns;
}

void trace_ring::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) n = 1;
  if (n == capacity_ && ring_.size() <= capacity_) return;
  // Re-linearize oldest-to-newest, then keep the newest n.
  std::vector<span_record> linear;
  linear.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    linear.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  if (linear.size() > n) {
    linear.erase(linear.begin(),
                 linear.begin() + static_cast<std::ptrdiff_t>(linear.size() - n));
  }
  ring_ = std::move(linear);
  next_ = 0;
  capacity_ = n;
  // A full ring must wrap at index 0 (oldest is ring_[next_]).
  if (ring_.size() == capacity_) next_ = 0;
}

std::size_t trace_ring::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::vector<span_record> trace_ring::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<span_record> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  }
  return out;
}

std::array<phase_rollup, kPhaseCount> trace_ring::rollups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rollups_;
}

void trace_ring::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  rollups_ = {};
}

trace_span::trace_span(phase p, std::int64_t hour) : ph_(p), hour_(hour) {
  if (!enabled()) return;
  armed_ = true;
  if (cpu_timed(p)) cpu_begin_ns_ = thread_cpu_ns();
  wall_begin_ns_ = wall_ns();
}

trace_span::~trace_span() {
  if (!armed_) return;
  span_record s;
  s.ph = ph_;
  s.hour = hour_;
  const std::uint64_t wall_end = wall_ns();
  s.wall_ns = wall_end >= wall_begin_ns_ ? wall_end - wall_begin_ns_ : 0;
  if (cpu_timed(ph_)) {
    const std::uint64_t cpu_end = thread_cpu_ns();
    s.cpu_ns = cpu_end >= cpu_begin_ns_ ? cpu_end - cpu_begin_ns_ : 0;
  }
  trace_ring::instance().record(s);
}

}  // namespace clasp::obs
