#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace mnsim::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() { epoch_ns_.store(steady_now_ns()); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  // Relaxed throughout the enable/epoch pair: a span racing with
  // enable() may record against the old epoch or drop — both are
  // documented no-ops, and nothing else travels with these atomics.
  // mnsim-analyze: allow(atomic-order, epoch is self-contained; a racing span drops or backdates harmlessly)
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // mnsim-analyze: allow(atomic-order, enable flag gates best-effort observation only)
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  // mnsim-analyze: allow(atomic-order, disable flag gates best-effort observation only)
  enabled_.store(false, std::memory_order_relaxed);
}

void Tracer::reset() {
  const util::MutexLock lock(mutex_);
  // Buffers persist for the life of their thread (thread_local handles
  // point into them); only the recorded events are dropped. Clearing the
  // child stacks is what makes a dangling end() drop its span instead of
  // recording against the new epoch — safe under the documented
  // precondition that no other thread has a span open.
  for (auto& buf : buffers_) {
    const util::MutexLock buf_lock(buf->mutex);
    buf->events.clear();
    buf->child_ns_stack.clear();
  }
  // mnsim-analyze: allow(atomic-order, epoch re-arm under the documented no-open-spans precondition)
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const {
  const std::int64_t delta =
      // mnsim-analyze: allow(atomic-order, timestamps clamp at zero; cross-thread skew is bounded by the clamp)
      steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

std::shared_ptr<internal::ThreadBuffer> Tracer::local_buffer() {
  thread_local std::shared_ptr<internal::ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<internal::ThreadBuffer>();
    const util::MutexLock lock(mutex_);
    // The buffer mutex is uncontended here (publication happens on the
    // push_back below), but taking it keeps the guarded-by contract on
    // `name` unconditional instead of relying on pre-publication timing.
    const util::MutexLock buf_lock(buffer->mutex);
    buffer->id = static_cast<std::uint32_t>(buffers_.size());
    buffer->name = "thread-" + std::to_string(buffer->id);
    buffers_.push_back(buffer);
  }
  return buffer;
}

std::vector<SpanEvent> Tracer::events() const {
  std::vector<SpanEvent> out;
  {
    const util::MutexLock lock(mutex_);
    for (const auto& buf : buffers_) {
      const util::MutexLock buf_lock(buf->mutex);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.start_ns != b.start_ns)
                       return a.start_ns < b.start_ns;
                     return a.duration_ns > b.duration_ns;  // parent first
                   });
  return out;
}

std::size_t Tracer::event_count() const {
  const util::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    const util::MutexLock buf_lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

std::vector<PhaseStats> Tracer::phase_stats() const {
  std::map<std::string, PhaseStats> by_name;
  for (const SpanEvent& e : events()) {
    PhaseStats& st = by_name[e.name];
    st.name = e.name;
    ++st.calls;
    st.total_ns += e.duration_ns;
    st.self_ns += e.self_ns;
  }
  std::vector<PhaseStats> out;
  out.reserve(by_name.size());
  for (auto& [name, st] : by_name) out.push_back(std::move(st));
  std::sort(out.begin(), out.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return out;
}

std::string Tracer::chrome_trace_json() const {
  // Thread names first (metadata records), then one complete event per
  // span, timestamps in microseconds as the format requires.
  std::vector<std::pair<std::uint32_t, std::string>> threads;
  {
    const util::MutexLock lock(mutex_);
    for (const auto& buf : buffers_) {
      const util::MutexLock buf_lock(buf->mutex);
      threads.emplace_back(buf->id, buf->name);
    }
  }

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  char num[64];
  for (const auto& [tid, name] : threads) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(num, sizeof(num), "%u", tid);
    out += "  {\"ph\": \"M\", \"pid\": 1, \"tid\": ";
    out += num;
    out += ", \"name\": \"thread_name\", \"args\": {\"name\": " +
           util::json_quote(name) + "}}";
  }
  for (const SpanEvent& e : events()) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(e.start_ns) / 1000.0);
    out += "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(e.thread) + ", \"cat\": \"mnsim\", \"name\": " +
           util::json_quote(e.name) + ", \"ts\": " + num;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(e.duration_ns) / 1000.0);
    out += std::string(", \"dur\": ") + num + "}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string Tracer::text_profile() const {
  const auto stats = phase_stats();
  const auto evs = events();

  std::uint64_t wall_begin = UINT64_MAX;
  std::uint64_t wall_end = 0;
  std::vector<std::uint32_t> tids;
  for (const SpanEvent& e : evs) {
    wall_begin = std::min(wall_begin, e.start_ns);
    wall_end = std::max(wall_end, e.start_ns + e.duration_ns);
    if (std::find(tids.begin(), tids.end(), e.thread) == tids.end())
      tids.push_back(e.thread);
  }
  const double wall_ms =
      evs.empty() ? 0.0
                  : static_cast<double>(wall_end - wall_begin) / 1e6;

  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-36s %9s %12s %12s %10s\n", "phase",
                "calls", "total (ms)", "self (ms)", "avg (us)");
  out += line;
  out += std::string(82, '-') + "\n";
  for (const PhaseStats& st : stats) {
    const double total_ms = static_cast<double>(st.total_ns) / 1e6;
    const double self_ms = static_cast<double>(st.self_ns) / 1e6;
    const double avg_us = st.calls > 0
                              ? static_cast<double>(st.total_ns) /
                                    (1e3 * static_cast<double>(st.calls))
                              : 0.0;
    std::snprintf(line, sizeof(line), "%-36s %9ld %12.3f %12.3f %10.2f\n",
                  st.name.c_str(), st.calls, total_ms, self_ms, avg_us);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "wall clock: %.3f ms, %zu events across %zu thread(s)\n",
                wall_ms, evs.size(), tids.size());
  out += std::string(82, '-') + "\n";
  out += line;
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  // Atomic + durable so a crash mid-write never leaves a truncated
  // trace; the bool API stays (trace output is best-effort by design).
  try {
    util::atomic_write_file(path, chrome_trace_json());
    return true;
    // mnsim-analyze: allow(swallowed-exception, the bool return is the error report; trace output is best-effort by contract)
  } catch (const std::runtime_error&) {
    return false;
  }
}

void Span::begin(const char* name) {
  name_ = name;
  auto buf = Tracer::instance().local_buffer();
  buf->child_ns_stack.push_back(0);
  active_ = true;
  // Timestamp last so span setup cost is not attributed to the span.
  start_ns_ = Tracer::instance().now_ns();
}

void Span::end() {
  Tracer& tracer = Tracer::instance();
  const std::uint64_t end_ns = tracer.now_ns();
  auto buf = tracer.local_buffer();
  // A reset() between begin and end empties the stack; drop the span
  // rather than fabricate attribution.
  if (buf->child_ns_stack.empty()) return;
  const std::uint64_t duration =
      end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  const std::uint64_t child = buf->child_ns_stack.back();
  buf->child_ns_stack.pop_back();
  if (!buf->child_ns_stack.empty()) buf->child_ns_stack.back() += duration;

  SpanEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = duration;
  event.self_ns = duration > child ? duration - child : 0;
  event.thread = buf->id;
  event.depth = static_cast<std::uint32_t>(buf->child_ns_stack.size());
  const util::MutexLock lock(buf->mutex);
  buf->events.push_back(event);
}

void set_thread_name(std::string name) {
  auto buf = Tracer::instance().local_buffer();
  const util::MutexLock lock(buf->mutex);
  buf->name = std::move(name);
}

}  // namespace mnsim::obs
