#pragma once
// A keyed table whose values are computed at most once per key, shared
// by the worker threads of one sweep (arch::CircuitCheckMemo is its
// user; docs/PERFORMANCE.md, "Sweep circuit memo").
//
// The first caller of a key computes the value outside the lock. Callers
// that arrive while it runs wait for it instead of repeating the work,
// polling their own cancellation token (util/cancel) so a watchdog
// deadline still fires while they wait. A compute that throws leaves no
// entry and wakes the waiters; the next caller computes again, so a
// failure is never cached and a retried point fails (or succeeds) on its
// own terms.
//
// Keys are the full key text, never only a hash of it: two different
// inputs can therefore not share a value.

#include <condition_variable>
#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/cancel.hpp"
#include "util/thread_safety.hpp"

// The bounded wait below is cancellation polling, not instrumentation.
// lint: allow-raw-chrono(bounded wait so a waiter polls its cancel token)
#include <chrono>

namespace mnsim::util {

template <class Value>
class ComputeOnce {
 public:
  ComputeOnce() = default;
  ComputeOnce(const ComputeOnce&) = delete;
  ComputeOnce& operator=(const ComputeOnce&) = delete;

  // The value for `key`: `compute()` runs when no value is stored and no
  // other caller is computing one; otherwise this waits for that caller.
  // Throws what `compute` throws, and CancelledError when the calling
  // thread's token is requested while it waits.
  template <class Compute>
  Value get(const std::string& key, Compute&& compute) MN_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      for (;;) {
        const auto it = slots_.find(key);
        if (it == slots_.end()) {
          slots_.emplace(key, std::nullopt);  // in flight: this caller
          break;
        }
        if (it->second) return *it->second;
        // lint: allow-raw-chrono(bounded wait so a waiter polls its cancel token)
        ready_.wait_for(mutex_, std::chrono::milliseconds(2));
        throw_if_cancelled("util.compute_once");
      }
    }
    try {
      Value value = std::forward<Compute>(compute)();
      {
        const MutexLock lock(mutex_);
        slots_[key] = value;
      }
      ready_.notify_all();
      return value;
    } catch (...) {
      {
        const MutexLock lock(mutex_);
        slots_.erase(key);
      }
      ready_.notify_all();
      throw;
    }
  }

  // Number of keys holding a computed value.
  [[nodiscard]] std::size_t size() const MN_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto& slot : slots_)
      if (slot.second) ++n;
    return n;
  }

 private:
  mutable Mutex mutex_;
  std::condition_variable_any ready_;
  // nullopt while the first caller of the key is still computing it.
  std::unordered_map<std::string, std::optional<Value>> slots_
      MN_GUARDED_BY(mutex_);
};

}  // namespace mnsim::util
