// Level-2: Computation Bank (paper Sec. III-B, Fig. 1c).
//
// One bank processes one neuromorphic layer: a grid of computation units
// (block-tiled weight matrix; the units of a block-row form a synapse
// sub-bank sharing inputs), an adder tree merging block-row results
// (with shifters when a weight spans several cells), the optional pooling
// module + pooling line buffer (CNN), the non-linear neuron modules, and
// the output buffer (registers for FC, Eq. 6 line buffers for cascaded
// conv layers).
//
// With fault injection on, a bank also composes its defect-induced error
// (fault::estimate_fault_error) and, under fault.circuit_check, solves a
// defect-injected crossbar at circuit level. Inside a sweep both come
// from the sweep's CircuitCheckMemo (arch/circuit_check_memo.hpp), which
// computes each distinct input once; outside one the bank computes them
// itself.
#pragma once

#include <optional>

#include "arch/computation_unit.hpp"
#include "arch/mapper.hpp"
#include "circuit/module.hpp"

namespace mnsim::arch {

class CircuitCheckMemo;  // arch/circuit_check_memo.hpp

struct BankReport {
  LayerMapping mapping;
  UnitReport unit;               // representative full unit
  long iterations = 1;           // matrix-vector passes per input sample
  long warmup_passes = 1;        // passes before the next bank can start
                                 // (line-buffer fill for conv-to-conv,
                                 // everything for conv-to-FC, 1 for FC)

  circuit::Ppa units_total;      // all units (area/leakage; power averaged)
  circuit::Ppa adder_tree, pooling, pooling_buffer, neurons, output_buffer;

  double area = 0.0;             // [m^2]
  double leakage_power = 0.0;    // [W]
  double pass_latency = 0.0;     // one matrix-vector pass through the bank
  double sample_latency = 0.0;   // iterations * pass (streamed)
  double dynamic_energy_per_sample = 0.0;
  double energy_per_sample = 0.0;  // dynamic + leakage * sample_latency

  int neuron_count = 0;
  int output_lanes = 0;          // simultaneous outputs after the tree

  // Analog computing error rates of this bank's crossbars (Sec. VI),
  // including the hard-defect contribution when fault injection is on.
  double epsilon_worst = 0.0;
  double epsilon_average = 0.0;

  // Fault-injection bookkeeping and circuit-level solver diagnostics for
  // this bank (faults_injected counts the bank's defect map; the solver
  // counters are nonzero only when fault.circuit_check ran a
  // defect-injected circuit-level solve).
  spice::SolverDiagnostics solver;

  [[nodiscard]] double average_power() const {
    return sample_latency > 0
               ? energy_per_sample / sample_latency
               : 0.0;
  }
};

// Simulates the bank for `layer` (must be weighted). `attached_pooling`
// is the pooling layer following it, if any; `next_weighted` (when given
// and convolutional) sizes the Eq. 6 output line buffer.
//
// With fault injection on, the bank's fault work (the fault-error
// estimate and, under fault.circuit_check, the defect-injected crossbar
// solve) goes one of two ways:
//   * `memo` non-null (a sweep): both come from the sweep's
//     CircuitCheckMemo, which computes each distinct input once, solving
//     circuits cold; `solve_cache` is not used;
//   * `memo` null (a single run, or a memo-free re-check): both are
//     computed here, and when `solve_cache` is non-null the solve reuses
//     the cached crossbar topology across banks sharing one geometry
//     (the common case: every bank clipped to fault.circuit_check_size),
//     counted in the bank's solver diagnostics.
// Every output that reaches a design record (error rates, fault count,
// fallback count) is the same either way.
BankReport simulate_bank(const nn::Layer& layer,
                         const nn::Layer* attached_pooling,
                         const nn::Layer* next_weighted,
                         const nn::Network& network,
                         const AcceleratorConfig& config,
                         spice::CrossbarSolveCache* solve_cache = nullptr,
                         CircuitCheckMemo* memo = nullptr);

}  // namespace mnsim::arch
