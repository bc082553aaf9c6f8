// RAII scoped timers over the campaign phase taxonomy.
//
// A trace_span measures wall time (steady_clock) and thread CPU time
// (CLOCK_THREAD_CPUTIME_ID where available) for one phase of work and
// records a span_record into a bounded in-memory ring plus per-phase
// rollups. Spans are created coordinator-side (a handful per campaign
// hour); the disabled cost is one relaxed atomic load in the constructor.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace clasp::obs {

// Phase taxonomy (see DESIGN.md "Observability"). `stage` covers worker
// evaluation of a whole hour (the paper-facing "evaluate" phase). The
// set-up phases are `world` (internet generation and server deployment,
// once per platform), `select` (one region's pilot and topology
// selection) and `deploy` (one campaign's deployment).
enum class phase : std::uint8_t {
  deploy = 0,
  begin_hour,
  prefill,
  stage,
  commit,
  checkpoint,
  resume,
  analysis,
  world,
  select,
};
inline constexpr std::size_t kPhaseCount = 10;

const char* to_string(phase p);

// Thread CPU time is a syscall (~hundreds of ns), so spans only read it
// for the rare heavyweight phases. The per-hour phases skip it: their
// coordinator-thread CPU time is uninformative anyway once workers do the
// evaluation, and the hot loop stays in the low tens of ns per span.
inline constexpr bool cpu_timed(phase p) {
  return p == phase::deploy || p == phase::checkpoint ||
         p == phase::resume || p == phase::analysis || p == phase::world ||
         p == phase::select;
}

struct span_record {
  phase ph{phase::deploy};
  std::int64_t hour{-1};  // hours-since-epoch cursor, -1 when not hourly
  std::uint64_t wall_ns{0};
  std::uint64_t cpu_ns{0};
};

struct phase_rollup {
  std::uint64_t count{0};
  std::uint64_t wall_ns{0};
  std::uint64_t cpu_ns{0};
  std::uint64_t max_wall_ns{0};
};

// Bounded ring of recent spans + cumulative per-phase rollups. The ring
// is mutex-protected (span completion is rare); rollups are plain fields
// updated under the same mutex.
class trace_ring {
 public:
  trace_ring() = default;
  trace_ring(const trace_ring&) = delete;
  trace_ring& operator=(const trace_ring&) = delete;

  static trace_ring& instance();

  void record(const span_record& s);

  // Ring capacity; shrinking drops the oldest spans. Minimum 1.
  void set_capacity(std::size_t n);
  std::size_t capacity() const;

  // Oldest-to-newest copy of the retained spans.
  std::vector<span_record> recent() const;
  std::array<phase_rollup, kPhaseCount> rollups() const;

  // Drops all spans and zeroes the rollups (capacity unchanged).
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<span_record> ring_;  // ring_[next_] is the oldest once wrapped
  std::size_t next_{0};
  std::size_t capacity_{256};
  std::array<phase_rollup, kPhaseCount> rollups_{};
};

// Scoped timer; records into trace_ring::instance() on destruction.
// Construction when obs is disabled arms nothing and reads no clocks.
class trace_span {
 public:
  explicit trace_span(phase p, std::int64_t hour = -1);
  ~trace_span();
  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

 private:
  phase ph_;
  std::int64_t hour_;
  bool armed_{false};
  std::uint64_t wall_begin_ns_{0};
  std::uint64_t cpu_begin_ns_{0};
};

// Current thread's CPU time in ns; 0 where the platform lacks
// CLOCK_THREAD_CPUTIME_ID.
std::uint64_t thread_cpu_ns();

}  // namespace clasp::obs
