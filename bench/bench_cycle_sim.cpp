// Cycle-level dataflow engine: wall-clock scaling and event-cap cost.
//
// Both workloads use unconstrained scratchpads and report a same-host
// ratio so the gate is machine-independent (tools/perf_gate.py vs
// BENCH_cycle.json):
//   cycle-linear      CaffeNet's wall-clock per tile over VGG-16's (the
//                     largest tile count of the built-in topologies).
//                     The engine does constant work per tile, so the
//                     ratio sits near 1; work that grows with the tile
//                     count drags it towards the tile-count ratio
//                     (about 1/32 for quadratic creep). The CSV's
//                     sequential_s is CaffeNet's time scaled to VGG-16's
//                     tile count, batched_s is VGG-16's time.
//   events-capped     full event recording over the default 256-event
//                     cap on VGG-16. Capping must not cost anything
//                     measurable — the floor guards the cap actually
//                     short-circuiting the per-event bookkeeping.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "arch/cycle_sim.hpp"
#include "bench_common.hpp"
#include "nn/topologies.hpp"
#include "util/table.hpp"

using namespace mnsim;

namespace {

double time_seconds(const std::function<void()>& fn, int repeats) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / repeats;
}

}  // namespace

int main() {
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.crossbar_size = 128;
  cfg.interconnect_node_nm = 45;
  cfg.cycle_enabled = true;
  // Unconstrained memory hierarchy: the timing ratios should measure the
  // tile walker, not a bandwidth-starved schedule.
  cfg.cycle_ifmap_kb = 1e5;
  cfg.cycle_filter_kb = 1e5;
  cfg.cycle_ofmap_kb = 1e5;
  cfg.cycle_bandwidth_gbps = 1e6;

  const auto report = arch::simulate_accelerator(nn::make_vgg16(), cfg);
  const auto small = arch::simulate_accelerator(nn::make_caffenet(), cfg);
  const int repeats = 5;

  util::Table table("Cycle engine timing (VGG-16)");
  table.set_header(
      {"Workload", "Tiles", "Reference (s)", "Measured (s)", "Ratio"});
  util::CsvWriter csv;
  csv.set_header({"workload", "entries", "sequential_s", "batched_s",
                  "speedup"});
  auto record = [&](const char* name, long entries, double seq_s,
                    double bat_s) {
    const double ratio = seq_s / bat_s;
    table.add_row({name, std::to_string(entries), util::Table::sig(seq_s, 4),
                   util::Table::sig(bat_s, 4),
                   util::Table::sig(ratio, 3) + "x"});
    csv.add_row({name, std::to_string(entries), util::Table::sig(seq_s, 6),
                 util::Table::sig(bat_s, 6), util::Table::sig(ratio, 6)});
  };

  const auto cycles = arch::simulate_cycles(report, cfg);

  // --- cycle-linear: per-tile cost independent of the tile count ----------
  {
    const long small_tiles = arch::simulate_cycles(small, cfg).total_tiles;
    const double scale = static_cast<double>(cycles.total_tiles) /
                         static_cast<double>(small_tiles);
    // Proportionally more CaffeNet repeats, so both sides time about the
    // same number of tiles.
    const int small_repeats =
        std::max(repeats, static_cast<int>(repeats * scale));
    const double small_s = time_seconds(
        [&] { (void)arch::simulate_cycles(small, cfg); }, small_repeats);
    const double cycle_s =
        time_seconds([&] { (void)arch::simulate_cycles(report, cfg); },
                     repeats);
    record("cycle-linear", cycles.total_tiles, small_s * scale, cycle_s);
  }

  // --- events-capped: the Max_Events cap must short-circuit -----------------
  {
    auto uncapped = cfg;
    uncapped.cycle_max_events = 1L << 30;
    const double full_s = time_seconds(
        [&] { (void)arch::simulate_cycles(report, uncapped); }, repeats);
    const double capped_s =
        time_seconds([&] { (void)arch::simulate_cycles(report, cfg); },
                     repeats);
    record("events-capped", cycles.total_tiles, full_s, capped_s);
  }

  table.print();
  bench::paper_note(
      "no direct table — infrastructure for the Sec. VII dataflow "
      "analysis: the cycle engine adds the scratchpad/bandwidth model to "
      "the pass-level schedule at a constant cost per tile.");
  bench::save_csv(csv, "cycle_sim.csv");
  return 0;
}
