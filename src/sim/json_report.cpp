#include "sim/json_report.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mnsim::sim {

using util::json_number;
using util::json_quote;

std::string report_to_json(const nn::Network& network,
                           const arch::AcceleratorReport& report,
                           const arch::CycleSimResult* cycles) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"network\": {\"name\": " << json_quote(network.name)
     << ", \"depth\": " << network.depth()
     << ", \"weights\": " << network.total_weights() << "},\n";
  os << "  \"totals\": {"
     << "\"area\": " << json_number(report.area)
     << ", \"power\": " << json_number(report.power)
     << ", \"leakage_power\": " << json_number(report.leakage_power)
     << ", \"energy_per_sample\": " << json_number(report.energy_per_sample)
     << ", \"sample_latency\": " << json_number(report.sample_latency)
     << ", \"pipeline_cycle\": " << json_number(report.pipeline_cycle)
     << ", \"max_error_rate\": " << json_number(report.max_error_rate)
     << ", \"avg_error_rate\": " << json_number(report.avg_error_rate)
     << ", \"relative_accuracy\": " << json_number(report.relative_accuracy)
     << ", \"total_units\": " << report.total_units
     << ", \"total_crossbars\": " << report.total_crossbars << "},\n";

  // Robustness blocks: what the solver actually did and which fault
  // model (with its exact seed) produced this report. Booleans are
  // emitted as 0/1 so parse_json_numbers round-trips every field.
  const auto& d = report.solver;
  os << "  \"solver_diagnostics\": {"
     << "\"newton_iterations\": " << d.newton_iterations
     << ", \"newton_residual\": " << json_number(d.newton_residual)
     << ", \"cg_iterations\": " << d.cg_iterations
     << ", \"cg_retries\": " << d.cg_retries
     << ", \"lu_fallbacks\": " << d.lu_fallbacks
     << ", \"damped_steps\": " << d.damped_steps
     << ", \"linear_residual\": " << json_number(d.linear_residual)
     << ", \"faults_injected\": " << d.faults_injected
     << ", \"cache_hits\": " << d.cache_hits
     << ", \"warm_starts\": " << d.warm_starts
     << ", \"schur_solves\": " << d.schur_solves
     << ", \"schur_iterations\": " << d.schur_iterations
     << ", \"schur_rejects\": " << d.schur_rejects
     << ", \"factor_reuses\": " << d.factor_reuses
     << ", \"condition_estimate\": " << json_number(d.condition_estimate)
     << ", \"threads\": " << d.threads
     << ", \"degraded\": " << (d.degraded() ? 1 : 0) << "},\n";
  const auto& f = report.fault_config;
  os << "  \"fault_model\": {"
     << "\"enabled\": " << (f.enabled() ? 1 : 0)
     << ", \"seed\": " << f.seed
     << ", \"stuck_at_zero_rate\": " << json_number(f.stuck_at_zero_rate)
     << ", \"stuck_at_one_rate\": " << json_number(f.stuck_at_one_rate)
     << ", \"broken_wordline_rate\": " << json_number(f.broken_wordline_rate)
     << ", \"broken_bitline_rate\": " << json_number(f.broken_bitline_rate)
     << ", \"retention_time\": " << json_number(f.retention_time)
     << ", \"circuit_check\": " << (f.circuit_check ? 1 : 0) << "},\n";

  // Pre-flight analyzer findings that rode along with the run (errors
  // would have thrown before a report existed).
  os << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ")
       << report.diagnostics[i].render_json();
  os << (report.diagnostics.empty() ? "" : "\n  ") << "],\n";

  auto item = [&](const char* name, const arch::BreakdownItem& it,
                  bool last = false) {
    os << "    " << json_quote(name)
       << ": {\"area\": " << json_number(it.area)
       << ", \"energy\": " << json_number(it.energy) << "}"
       << (last ? "\n" : ",\n");
  };
  os << "  \"breakdown\": {\n";
  item("crossbars", report.breakdown.crossbars);
  item("input_dacs", report.breakdown.input_dacs);
  item("read_circuits", report.breakdown.read_circuits);
  item("decoders", report.breakdown.decoders);
  item("digital", report.breakdown.digital);
  item("adder_trees", report.breakdown.adder_trees);
  item("neurons", report.breakdown.neurons);
  item("pooling", report.breakdown.pooling);
  item("buffers", report.breakdown.buffers);
  item("interfaces", report.breakdown.interfaces, true);
  os << "  },\n";

  os << "  \"banks\": [\n";
  for (std::size_t b = 0; b < report.banks.size(); ++b) {
    const auto& bank = report.banks[b];
    os << "    {\"units\": " << bank.mapping.unit_count
       << ", \"area\": " << json_number(bank.area)
       << ", \"energy_per_sample\": " << json_number(bank.energy_per_sample)
       << ", \"pass_latency\": " << json_number(bank.pass_latency)
       << ", \"iterations\": " << bank.iterations
       << ", \"epsilon_worst\": " << json_number(bank.epsilon_worst)
       << ", \"epsilon_average\": " << json_number(bank.epsilon_average) << "}"
       << (b + 1 < report.banks.size() ? "," : "") << "\n";
  }
  os << "  ]";

  // Cycle-level memory-hierarchy results ([cycle] Enabled). Enums are
  // emitted as their config spellings; booleans as 0/1 so
  // parse_json_numbers round-trips the numeric fields.
  if (cycles != nullptr) {
    const auto& c = *cycles;
    os << ",\n  \"cycle\": {\n"
       << "    \"dataflow\": " << json_quote(arch::dataflow_name(c.dataflow))
       << ", \"fill_policy\": "
       << json_quote(arch::fill_policy_name(c.fill_policy))
       << ", \"clock_hz\": " << json_number(c.clock_hz)
       << ", \"makespan_cycles\": " << c.makespan_cycles
       << ", \"makespan_seconds\": " << json_number(c.makespan_seconds)
       << ", \"total_tiles\": " << c.total_tiles
       << ", \"total_busy_cycles\": " << c.total_busy_cycles
       << ", \"total_stall_cycles\": " << c.total_stall_cycles
       << ", \"backing_traffic_bytes\": "
       << json_number(c.backing_traffic_bytes)
       << ", \"weight_image_bytes\": " << json_number(c.weight_image_bytes)
       << ", \"pe_scheduled_fraction\": "
       << json_number(c.pe_scheduled_fraction)
       << ", \"pe_active_fraction\": " << json_number(c.pe_active_fraction)
       << ", \"stall_fraction\": " << json_number(c.stall_fraction) << ",\n"
       << "    \"banks\": [\n";
    for (std::size_t b = 0; b < c.banks.size(); ++b) {
      const auto& bank = c.banks[b];
      os << "      {\"tiles\": " << bank.tiles
         << ", \"compute_cycles_per_tile\": " << bank.compute_cycles_per_tile
         << ", \"busy_cycles\": " << bank.busy_cycles
         << ", \"dependency_stall_cycles\": " << bank.dependency_stall_cycles
         << ", \"fill_stall_cycles\": " << bank.fill_stall_cycles
         << ", \"drain_stall_cycles\": " << bank.drain_stall_cycles
         << ", \"idle_cycles\": " << bank.idle_cycles
         << ", \"utilization\": " << json_number(bank.utilization)
         << ", \"ifmap_bytes\": " << json_number(bank.ifmap_bytes)
         << ", \"ofmap_bytes\": " << json_number(bank.ofmap_bytes)
         << ", \"filter_bytes\": " << json_number(bank.filter_bytes)
         << ", \"bus_busy_cycles\": " << bank.bus_busy_cycles
         << ", \"resident_ifmap\": " << (bank.resident_ifmap ? 1 : 0)
         << ", \"resident_ofmap\": " << (bank.resident_ofmap ? 1 : 0) << "}"
         << (b + 1 < c.banks.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }";
  }

  // Process-wide observability counters ([trace] Metrics; the registry
  // aggregates across every solve of the run, a superset of the
  // per-report solver_diagnostics block above).
  const obs::Registry& reg = obs::Registry::global();
  if (reg.enabled() && !reg.empty())
    os << ",\n  \"metrics\": " << reg.to_json();
  os << "\n}\n";
  return os.str();
}

}  // namespace mnsim::sim
