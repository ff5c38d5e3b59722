#include "spice/transient.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "spice/mna_internal.hpp"

namespace mnsim::spice {

double TransientResult::settling_time(std::size_t probe,
                                      double tolerance) const {
  if (probe >= probe_voltages.size())
    throw std::out_of_range("TransientResult::settling_time: probe");
  const auto& v = probe_voltages[probe];
  if (v.empty()) return 0.0;
  const double final_v = v.back();
  const double band = tolerance * std::fabs(final_v) + 1e-15;
  // Walk backwards: the settling time is the first instant after the last
  // excursion outside the band.
  for (std::size_t i = v.size(); i-- > 0;) {
    if (std::fabs(v[i] - final_v) > band)
      return i + 1 < time.size() ? time[i + 1] : time.back();
  }
  return time.front();
}

TransientResult solve_transient(const Netlist& nl,
                                const std::vector<NodeId>& probes,
                                const TransientOptions& opt) {
  nl.validate();
  const double dt = opt.time_step;
  if (!std::isfinite(dt) || !(dt > 0) || !std::isfinite(opt.end_time) ||
      !(opt.end_time > 0))
    throw std::invalid_argument(
        "solve_transient: time step / end time must be finite and positive");
  // Checked in double before the cast: converting a quotient at or above
  // 2^63 (or inf) to long is undefined.
  const double step_count = std::ceil(opt.end_time / dt);
  if (!(step_count < static_cast<double>(std::numeric_limits<long>::max())))
    throw std::invalid_argument("solve_transient: too many time steps");
  const auto steps = static_cast<long>(step_count);
  const int nodes = nl.node_count() + 1;
  for (NodeId p : probes) {
    if (p < 0 || p >= nodes)
      throw std::invalid_argument("solve_transient: probe node");
  }

  // v holds the full node-voltage vector of the previous accepted step;
  // initial condition: everything at zero, sources step at t = 0+.
  std::vector<double> v(static_cast<std::size_t>(nodes), 0.0);

  TransientResult result;
  result.converged = true;
  result.time.reserve(static_cast<std::size_t>(steps) + 1);
  result.probe_voltages.assign(probes.size(), {});
  auto record = [&](double t) {
    result.time.push_back(t);
    for (std::size_t i = 0; i < probes.size(); ++i)
      result.probe_voltages[i].push_back(v[probes[i]]);
  };
  record(0.0);

  MnaCache cache;
  for (long step = 1; step <= steps; ++step) {
    DcResult point = internal::solve_backward_euler_step(nl, dt, v, cache);
    result.diagnostics.absorb(point.diagnostics);
    if (!point.converged) result.converged = false;
    v = std::move(point.node_voltages);
    record(static_cast<double>(step) * dt);
  }
  return result;
}

}  // namespace mnsim::spice
