// Low-overhead hierarchical tracing for the simulation stack.
//
// MNSIM's pitch is speed with auditable accuracy; this module makes the
// *speed* auditable too. Every simulator phase — netlist build, MNA
// assembly, CG / LU solves, Newton iterations, Monte-Carlo draws, DSE
// design points, bank construction — opens an obs::Span; the collected
// events export as a Chrome/Perfetto `chrome://tracing` JSON timeline and
// as a flat text profile (calls, total and self time per phase). This is
// the profiler-style per-component breakdown NVSim/CACTI-class estimators
// ship with, applied to the simulator itself (docs/OBSERVABILITY.md).
//
// Design constraints, in order:
//   1. Near-zero cost when disabled: a Span's constructor is a single
//      relaxed atomic load and branch (bench/bench_obs_overhead.cpp holds
//      this under 5 % on a span-per-64-iterations workload).
//   2. Thread-safe and thread-attributed: each OS thread records into its
//      own buffer (no contention on the hot path); events carry a stable
//      small thread id, and util::ThreadPool workers self-label so the
//      timeline shows the parallel sweep structure.
//   3. Deterministic simulation: tracing only *observes* — no simulation
//      result may ever depend on the tracer state.
//
// Span names must be string literals (or otherwise outlive the tracer):
// events store the pointer, never a copy, so the disabled path stays free
// of allocation. This header is a dependency leaf (std only) so every
// layer can instrument without include cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_safety.hpp"

namespace mnsim::obs {

// One completed span. Times are nanoseconds since the tracer epoch (the
// last enable()/reset()). `self_ns` excludes time spent in direct child
// spans on the same thread — exact by construction, not re-derived.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint32_t thread = 0;  // stable per-thread id (registration order)
  std::uint32_t depth = 0;   // nesting depth at begin; 0 = top level
};

// Per-phase aggregate of the text profile, exposed so tests can reconcile
// totals against wall clock without parsing the rendered table.
struct PhaseStats {
  std::string name;
  long calls = 0;
  std::uint64_t total_ns = 0;  // sum of durations (includes children)
  std::uint64_t self_ns = 0;   // sum of self times (disjoint per thread)
};

namespace internal {

// One buffer per OS thread that ever recorded a span. The owning thread
// appends under `mutex` (uncontended except during export); the
// child-time stack is owner-thread-only state and needs no lock. Lock
// order: exporters take Tracer::mutex_ first, then each buffer's mutex;
// nothing ever takes them in the other order (Span::end and
// set_thread_name take only the buffer mutex).
struct ThreadBuffer {
  util::Mutex mutex;
  std::vector<SpanEvent> events MN_GUARDED_BY(mutex);
  std::vector<std::uint64_t> child_ns_stack;  // owner thread only
  std::uint32_t id = 0;  // immutable after publication in local_buffer()
  std::string name MN_GUARDED_BY(mutex);  // set_thread_name vs exporters
};

}  // namespace internal

class Span;

// Process-global trace collector. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  // Arms the epoch and starts recording. Spans opened while disabled
  // record nothing, even if tracing is enabled before they close.
  void enable();
  void disable();
  // Drops all recorded events and re-arms the epoch. Do not call while
  // spans are open on other threads — their attribution becomes
  // meaningless (never unsafe: a dangling end() is simply dropped).
  void reset();

  [[nodiscard]] static bool enabled() {
    // mnsim-analyze: allow(atomic-order, Span fast path; buffer state is published by the buffer mutex not this flag)
    return enabled_.load(std::memory_order_relaxed);
  }

  // All completed events, merged across threads and sorted by start time
  // (parents before children at equal starts).
  [[nodiscard]] std::vector<SpanEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  // Per-phase aggregates sorted by self time, descending.
  [[nodiscard]] std::vector<PhaseStats> phase_stats() const;

  // Chrome `chrome://tracing` / Perfetto JSON: complete ("ph": "X")
  // events in microseconds plus thread_name metadata records.
  [[nodiscard]] std::string chrome_trace_json() const;
  // Flat text profile: one row per phase (calls, total, self, avg),
  // footer with wall clock and thread count.
  [[nodiscard]] std::string text_profile() const;
  // Writes chrome_trace_json() to `path`; false when the file cannot be
  // opened.
  bool write_chrome_trace(const std::string& path) const;

  // Nanoseconds since the epoch (monotonic).
  [[nodiscard]] std::uint64_t now_ns() const;

  // Buffer of the calling thread, registering it on first use. Exposed
  // for Span and set_thread_name; not part of the user API.
  std::shared_ptr<internal::ThreadBuffer> local_buffer();

 private:
  Tracer();

  static std::atomic<bool> enabled_;
  std::atomic<std::int64_t> epoch_ns_{0};
  // Guards registration and export; per-buffer mutexes nest inside it
  // (see internal::ThreadBuffer's lock-order note).
  mutable util::Mutex mutex_;
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers_
      MN_GUARDED_BY(mutex_);
};

// RAII trace span. `name` must outlive the tracer (use string literals).
// When tracing is disabled the constructor is one atomic load + branch.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::enabled()) begin(name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

// The issue-era name for the scoped-timing primitive; Span is the same
// type.
using ScopedTimer = Span;

// Labels the calling thread in trace exports ("main", "mnsim-worker-3").
// Safe to call whether or not tracing is enabled.
void set_thread_name(std::string name);

}  // namespace mnsim::obs
