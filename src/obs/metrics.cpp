#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "util/json.hpp"

namespace mnsim::obs {

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

void Registry::add(const std::string& name, long delta) {
  if (!enabled()) return;
  const util::MutexLock lock(mutex_);
  counters_[name] += delta;
}

void Registry::set(const std::string& name, double value) {
  if (!enabled()) return;
  const util::MutexLock lock(mutex_);
  gauges_[name] = value;
}

void Registry::observe(const std::string& name, double value) {
  if (!enabled()) return;
  const util::MutexLock lock(mutex_);
  Histogram& h = histograms_[name];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
}

long Registry::counter(const std::string& name) const {
  const util::MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::map<std::string, long> Registry::counters() const {
  const util::MutexLock lock(mutex_);
  return counters_;
}

std::map<std::string, double> Registry::gauges() const {
  const util::MutexLock lock(mutex_);
  return gauges_;
}

std::map<std::string, Registry::Histogram> Registry::histograms() const {
  const util::MutexLock lock(mutex_);
  return histograms_;
}

bool Registry::empty() const {
  const util::MutexLock lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void Registry::reset() {
  const util::MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot snap;
  const util::MutexLock lock(mutex_);
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.histograms = histograms_;
  return snap;
}

std::string Registry::to_json() const {
  using util::json_number;
  using util::json_quote;
  const Snapshot snap = snapshot();
  const auto& counters = snap.counters;
  const auto& gauges = snap.gauges;
  const auto& histograms = snap.histograms;
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += (first ? "" : ", ") + json_quote(name) + ": " +
           std::to_string(value);
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += (first ? "" : ", ") + json_quote(name) + ": " + json_number(value);
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += (first ? "" : ", ") + json_quote(name) +
           ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_number(h.sum) +
           ", \"min\": " + json_number(h.min) +
           ", \"max\": " + json_number(h.max) + "}";
    first = false;
  }
  out += "}}";
  return out;
}

std::string Registry::format_text() const {
  // One snapshot for all three categories. The previous implementation
  // called counters()/gauges()/histograms() — three separate lock
  // acquisitions — so concurrent producers could tear the rendered
  // block across categories (a counter and its paired histogram from
  // different instants). to_json() already snapshotted atomically; this
  // now matches it (regression: test_obs_metrics "FormatTextSnapshot").
  const Snapshot snap = snapshot();
  std::string out;
  char line[192];
  for (const auto& [name, value] : snap.counters) {
    std::snprintf(line, sizeof(line), "%-36s %ld\n", name.c_str(), value);
    out += line;
  }
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(line, sizeof(line), "%-36s %g\n", name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::snprintf(line, sizeof(line),
                  "%-36s count %ld  mean %g  min %g  max %g\n", name.c_str(),
                  h.count, h.mean(), h.min, h.max);
    out += line;
  }
  return out;
}

}  // namespace mnsim::obs
