// Sweep-scoped memo of a bank's fault work (docs/PERFORMANCE.md, "Sweep
// circuit memo").
//
// With fault injection on, every bank of every design point runs
// fault::estimate_fault_error and, under fault.circuit_check, a
// defect-injected circuit-level solve whose SolverDiagnostics ride up
// the report. Across a design-space sweep those inputs repeat: the
// fault-checked LeNet sweep runs 1275 circuit checks and 1275 fault
// estimates over only 20 distinct circuits and 70 distinct estimate
// inputs. This memo computes each distinct input once per sweep and
// hands the stored result to every later caller.
//
// Keys are the exact bytes of every input the computation reads: for
// the circuit check, every field of the final CrossbarSpec (defects
// applied, so the defect map is part of the key) plus every DcOptions
// field; for the estimate, every field of CrossbarErrorInputs plus every
// FaultConfig field. The full key is stored, so a hash collision cannot
// return a wrong result. Each circuit is solved cold (no shared
// CrossbarSolveCache), so a stored result does not depend on which bank
// or thread asked first.
//
// Compute-once and failure handling come from util::ComputeOnce: waiters
// poll their watchdog token, and a compute that throws stores nothing.
//
// The memo is scoped to one sweep (dse::run_sweep owns one per call,
// dse::analyze_sensitivity one per analysis, dse::optimize_per_bank one
// per search), not to the process: a single `sim` run reports the
// diagnostics of its own solves, and a memo-free evaluate_design stays
// an independent re-solve.
#pragma once

#include <cstddef>
#include <string>

#include "accuracy/voltage_error.hpp"
#include "fault/fault_model.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/mna.hpp"
#include "util/compute_once.hpp"

namespace mnsim::arch {

class CircuitCheckMemo {
 public:
  // The diagnostics of spice::solve_crossbar(spec, options), solved once
  // per distinct (spec, options).
  spice::SolverDiagnostics circuit_check(const spice::CrossbarSpec& spec,
                                         const spice::DcOptions& options);

  // fault::estimate_fault_error(in, config), computed once per distinct
  // (in, config).
  fault::FaultErrorResult fault_error(const accuracy::CrossbarErrorInputs& in,
                                      const fault::FaultConfig& config);

  // Distinct inputs computed so far (failed computes are not counted).
  [[nodiscard]] std::size_t distinct_circuits() const {
    return circuits_.size();
  }
  [[nodiscard]] std::size_t distinct_fault_inputs() const {
    return fault_errors_.size();
  }

 private:
  util::ComputeOnce<spice::SolverDiagnostics> circuits_;
  util::ComputeOnce<fault::FaultErrorResult> fault_errors_;
};

}  // namespace mnsim::arch
