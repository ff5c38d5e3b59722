// Transient (time-domain) circuit simulation.
//
// The behavior-level platform ignores wire capacitance (paper Sec. VI-B,
// approximation 2) and estimates settling with a fixed multiple of the
// Elmore time constant. This backward-Euler transient solver keeps the
// capacitors and integrates the full nonlinear network through a compute
// cycle (step inputs at t = 0), providing the ground truth for both
// approximations: the RC-ablation bench compares Elmore latency, the
// 6-tau behavior estimate, and the measured settling time.
//
// Integration: backward Euler with the standard capacitor companion model
// (G = C/dt in parallel with a history current source). Every time step
// is one solve of the DC engine (spice/mna.hpp) with the companions
// stamped in: the same assembly, Newton loop (DcOptions defaults), Schur
// rung and resilient ladder, watchdog polls (util/cancel.hpp), spans and
// metrics. One MnaCache serves the whole run, so the sparsity pattern is
// built once and each step warm-starts from the previous one.
//
// Validation: the run gates on Netlist::validate(), not on the DC
// pre-flight, because a node reached only through capacitors is floating
// at DC (MN-NET-004) yet well-posed at every time step.
#pragma once

#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace mnsim::spice {

struct TransientOptions {
  double time_step = 1e-12;    // dt [s]
  double end_time = 1e-9;      // total simulated time [s]
};

struct TransientResult {
  std::vector<double> time;                        // sample instants
  std::vector<std::vector<double>> probe_voltages; // [probe][step]
  bool converged = false;                          // every step converged
  SolverDiagnostics diagnostics;                   // absorbed over all steps

  // First instant after which the probe stays within `tolerance`
  // (relative) of its final value; returns end_time when it never
  // settles within the window.
  [[nodiscard]] double settling_time(std::size_t probe,
                                     double tolerance = 0.01) const;
};

// Integrates from all-zero initial conditions with the sources stepping
// to their DC values at t = 0. `probes` selects the recorded nodes.
// Throws std::invalid_argument on a non-finite or non-positive time step
// or end time, or a step count that does not fit in a long.
TransientResult solve_transient(const Netlist& netlist,
                                const std::vector<NodeId>& probes,
                                const TransientOptions& options = {});

}  // namespace mnsim::spice
