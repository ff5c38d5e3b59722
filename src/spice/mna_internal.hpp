// The one entry the transient solver shares with the DC solver. Not part
// of the public API.
#pragma once

#include <vector>

#include "spice/mna.hpp"

namespace mnsim::spice::internal {

// Solves one backward-Euler time step of length `dt` through solve_dc's
// traced, metered Newton/assembly/ladder kernel, with every capacitor
// stamped as its companion model (G = C/dt in parallel with a history
// current -G * v_prev). `previous` holds the node voltages (by node id)
// of the last accepted step; Newton warm-starts from it. One `cache`
// serves a whole run, so the sparsity pattern is built once.
DcResult solve_backward_euler_step(const Netlist& netlist, double dt,
                                   const std::vector<double>& previous,
                                   MnaCache& cache);

}  // namespace mnsim::spice::internal
