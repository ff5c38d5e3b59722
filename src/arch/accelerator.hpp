// Level-1: Accelerator (paper Sec. III-A, Fig. 1b).
//
// Cascaded computation banks (one per neuromorphic layer), framed by the
// input/output interface modules that stream samples over the limited
// bus wires (Interface_Number). The simulation accumulates bottom-up:
// areas and leakage add; the per-sample latency chains the banks (or, in
// the pipelined mode every multi-layer reference design uses, the
// pipeline cycle is the slowest bank's pass); the computing accuracy of
// the whole accelerator propagates layer-by-layer (Eq. 15) into the final
// worst/average digital error rates (Eq. 12-14).
#pragma once

#include <vector>

#include "arch/computation_bank.hpp"
#include "check/diagnostic.hpp"

namespace mnsim::arch {

// Area and per-sample dynamic energy by module class, aggregated from the
// representative full unit of each bank (edge units are approximated by
// the full-unit shares). Backs the paper's Sec. V-C observation that the
// read circuits take about half of the area and energy.
struct BreakdownItem {
  double area = 0.0;    // [m^2]
  double energy = 0.0;  // [J] per sample
};

struct AcceleratorBreakdown {
  BreakdownItem crossbars, input_dacs, read_circuits, decoders, digital,
      adder_trees, neurons, pooling, buffers, interfaces;

  [[nodiscard]] BreakdownItem total() const;
  // Share of the read path (MUX + subtract + ADC) in total area/energy.
  [[nodiscard]] double read_circuit_area_share() const;
  [[nodiscard]] double read_circuit_energy_share() const;
};

struct AcceleratorReport {
  std::vector<BankReport> banks;
  circuit::Ppa io_input, io_output, controller;

  double area = 0.0;             // [m^2]
  double leakage_power = 0.0;    // [W]
  double sample_latency = 0.0;   // one sample through all banks + I/O [s]
  double pipeline_cycle = 0.0;   // slowest bank pass (pipelined mode) [s]
  // Steady-state (pipelined) energy of one sample: each bank's dynamic
  // work plus its leakage over its own busy time. In a strictly serial
  // single-sample run the whole-chip leakage would additionally apply
  // for the full sample latency; multi-layer reference designs pipeline,
  // so the busy-time accounting is the paper's operating point.
  double energy_per_sample = 0.0;
  double power = 0.0;            // energy_per_sample / sample_latency

  // Propagated analog error rates at the accelerator output (Eq. 15).
  double epsilon_worst = 0.0;
  double epsilon_average = 0.0;
  // Digital error rates at the read-circuit quantization k = 2^output_bits.
  double max_error_rate = 0.0;   // Eq. 13
  double avg_error_rate = 0.0;   // Eq. 14 normalized
  double relative_accuracy = 0.0;  // 1 - avg_error_rate (Table II metric)

  long total_crossbars = 0;
  long total_units = 0;

  AcceleratorBreakdown breakdown;

  // Robustness: the fault configuration the run used (seed included, for
  // exact reproducibility) and the aggregated circuit-solver diagnostics
  // of every bank — degraded solves (CG retries, LU fallbacks, damped
  // Newton steps) are reported, never silent.
  fault::FaultConfig fault_config;
  spice::SolverDiagnostics solver;

  // Pre-flight analyzer findings that did not block the run (warnings,
  // notes); errors throw check::CheckError before any bank is built.
  // Rendered in the text report and the JSON "diagnostics" array.
  std::vector<check::Diagnostic> diagnostics;
};

// `memo` (a sweep's CircuitCheckMemo, or null) serves every bank's fault
// work; see simulate_bank.
AcceleratorReport simulate_accelerator(const nn::Network& network,
                                       const AcceleratorConfig& config,
                                       CircuitCheckMemo* memo = nullptr);

// Heterogeneous variant: one configuration per computation bank (per
// weighted layer, in network order). All accelerator-level parameters
// (interfaces, bus) come from the first entry. Throws when the
// configuration count does not match the network depth.
AcceleratorReport simulate_accelerator(
    const nn::Network& network,
    const std::vector<AcceleratorConfig>& per_bank_configs,
    CircuitCheckMemo* memo = nullptr);

}  // namespace mnsim::arch
