// Machine-readable report output.
//
// Serializes an AcceleratorReport (with its network context) to JSON so
// downstream tooling — plotting scripts, regression dashboards, design
// databases — can consume MNSIM results without parsing the ASCII
// tables. The writer emits a stable key layout; util::parse_json_numbers
// reads it back for round-trip testing and for loading archived results.
#pragma once

#include <string>

#include "arch/accelerator.hpp"
#include "arch/cycle_sim.hpp"
#include "nn/network.hpp"

namespace mnsim::sim {

// Serializes the report. All quantities are SI (m^2, W, J, s) with the
// same field names as the structs. When `cycles` is non-null (the run
// had [cycle] Enabled) a "cycle" block with the makespan, stall
// decomposition and per-bank traffic rides along.
std::string report_to_json(const nn::Network& network,
                           const arch::AcceleratorReport& report,
                           const arch::CycleSimResult* cycles = nullptr);

}  // namespace mnsim::sim
