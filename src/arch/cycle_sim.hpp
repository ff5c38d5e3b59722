// Cycle-level discrete-event simulation of the accelerator dataflow.
//
// The analytic pipeline model (arch/pipeline.*) assumes every operand is
// available the instant a bank needs it. This engine schedules every
// matrix-vector pass of one sample as tile-granular fill / compute /
// drain events against an explicit memory hierarchy: per-bank
// double-buffered scratchpads (ifmap / filter / ofmap;
// arch/scratchpad.hpp) in front of a backing store of bounded
// bandwidth, under a configurable dataflow (weight- / input- /
// output-stationary) and fill policy (prefetch vs demand). One tile is
// one matrix-vector pass; within a bank tiles execute in order on one
// PE. Across banks, tile k of a bank depends on the upstream bank's
// Eq. 6 line-buffer warm-up plus a proportional share of its remaining
// tiles (streamed conv), or on its entire sample (conv feeding an FC
// bank); that upstream data counts as available once its drain
// transfer has landed.
//
// Schedules are computed in integer cycles (clock auto-derived so the
// shortest pass spans kAutoCyclesPerPass cycles, or pinned by [cycle]
// Clock_GHz), which keeps the engine a pure integer function of its
// inputs: bit-identical at any thread count, so DSE sharding over
// cycle-mode points merges exactly (docs/PERFORMANCE.md).
//
// Every non-compute cycle inside a bank's active window is attributed to
// exactly one stall bucket by successive maxima:
//   dependency stall — upstream data not yet drained,
//   fill stall       — ifmap transfer still in flight (bandwidth or the
//                      demand policy),
//   drain stall      — ofmap slot still draining (backpressure);
// outside the window the PE is idle. span == busy + the three stalls.
#pragma once

#include "arch/accelerator.hpp"
#include "arch/scratchpad.hpp"

namespace mnsim::arch {

// Auto-clock granularity: the shortest pass maps to this many cycles,
// bounding quantization error of the makespan well under the 0.5% the
// pass-level makespan cross-check test budgets.
inline constexpr long kAutoCyclesPerPass = 1024;

struct CycleBankStats {
  long tiles = 0;                  // matrix-vector passes scheduled
  long compute_cycles_per_tile = 0;
  long start_cycle = 0;            // first compute start
  long finish_cycle = 0;           // last compute end
  long busy_cycles = 0;            // tiles * compute_cycles_per_tile
  long dependency_stall_cycles = 0;
  long fill_stall_cycles = 0;
  long drain_stall_cycles = 0;
  long idle_cycles = 0;            // makespan outside [start, finish]
  double utilization = 0.0;        // busy / span; 0 for idle banks

  // Scratchpad sizing and backing-store traffic.
  long ifmap_capacity_tiles = 0;
  long ofmap_capacity_tiles = 0;
  double ifmap_bytes = 0.0;        // on-timeline fill traffic
  double ofmap_bytes = 0.0;        // on-timeline drain traffic
  double filter_bytes = 0.0;       // one-time weight image (off-timeline)
  long bus_busy_cycles = 0;        // backing-bus occupancy
  double bus_utilization = 0.0;    // bus busy / makespan

  // Residency fallbacks: input-/output-stationary banks whose sample
  // does not fit the scratchpad stream instead (MN-CYC-005 warning).
  bool resident_ifmap = false;
  bool resident_ofmap = false;

  [[nodiscard]] long span_cycles() const { return finish_cycle - start_cycle; }
  [[nodiscard]] long stall_cycles() const {
    return dependency_stall_cycles + fill_stall_cycles + drain_stall_cycles;
  }
};

enum class TilePhase { kFill, kCompute, kDrain };

struct TileEvent {
  int bank = 0;
  long tile = 0;
  TilePhase phase = TilePhase::kCompute;
  long start_cycle = 0;
  long end_cycle = 0;
};

struct CycleSimResult {
  double clock_hz = 0.0;           // cycle duration = 1 / clock_hz
  Dataflow dataflow = Dataflow::kWeightStationary;
  FillPolicy fill_policy = FillPolicy::kPrefetch;

  long makespan_cycles = 0;        // last compute or drain, any bank
  double makespan_seconds = 0.0;
  long total_tiles = 0;
  long total_busy_cycles = 0;
  long total_stall_cycles = 0;
  double backing_traffic_bytes = 0.0;  // on-timeline fills + drains
  double weight_image_bytes = 0.0;     // one-time programming traffic
  // PE occupancy over banks * makespan: scheduled counts a bank's whole
  // active window (busy + stalled), active counts compute only.
  double pe_scheduled_fraction = 0.0;
  double pe_active_fraction = 0.0;
  // Aggregate stall share of the active windows: stalls / (busy+stalls).
  double stall_fraction = 0.0;

  std::vector<CycleBankStats> banks;
  // The first `cycle.Max_Events` events, for inspection/plotting.
  std::vector<TileEvent> events;
  // Non-blocking findings (e.g. MN-CYC-005 residency fallbacks);
  // pre-flight errors throw check::CheckError instead.
  std::vector<check::Diagnostic> diagnostics;
};

// Simulates the report's banks under config's [cycle] section (sizes,
// bandwidth, dataflow, fill policy, clock). Throws check::CheckError
// with MN-CYC-* diagnostics on malformed inputs (docs/DIAGNOSTICS.md).
CycleSimResult simulate_cycles(const AcceleratorReport& report,
                               const AcceleratorConfig& config);

}  // namespace mnsim::arch
