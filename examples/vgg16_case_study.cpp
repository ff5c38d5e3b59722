// The deep-CNN case study (paper Sec. VII-D): map VGG-16 onto the
// reference accelerator, inspect the per-bank breakdown, check the
// 16-layer error accumulation, and compare two candidate configurations.
//
//   ./build/examples/vgg16_case_study
#include <cstdio>

#include "arch/controller.hpp"
#include "arch/cycle_sim.hpp"
#include "arch/pipeline.hpp"
#include "sim/mnsim.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace mnsim;
  using namespace mnsim::units;

  auto network = nn::make_vgg16();

  arch::AcceleratorConfig config;
  config.cmos_node_nm = 45;
  config.crossbar_size = 128;
  config.parallelism = 128;
  config.interconnect_node_nm = 45;
  config.output_bits = 8;

  const auto report = sim::simulate(network, config);
  std::fputs(sim::format_report(network, report).c_str(), stdout);

  // Per-pipeline-cycle view: the slowest bank sets the cycle.
  std::printf("\npipeline cycle (slowest bank): %.4f us\n",
              report.pipeline_cycle / us);

  // Error accumulation across the 16 banks (Eq. 15): print the running
  // propagated error.
  util::Table acc("Error accumulation across banks (worst case)");
  acc.set_header({"Bank", "Layer eps (%)", "Propagated (%)"});
  double delta = 0.0;
  int index = 0;
  for (const auto& b : report.banks) {
    delta = (1.0 + delta) * (1.0 + b.epsilon_worst) - 1.0;
    acc.add_row({std::to_string(index++),
                 util::Table::num(100 * b.epsilon_worst, 3),
                 util::Table::num(100 * delta, 3)});
  }
  acc.print();

  // Instruction stream statistics for one sample.
  const auto trace = arch::generate_inference_trace(network, config);
  const auto program = arch::generate_program_trace(network, config);
  std::printf("\ninference trace: %zu COMPUTE instructions per sample\n",
              trace.size());
  std::printf("programming: %zu WRITE instructions, %.2f ms to load all "
              "weights (done once)\n",
              program.size(),
              arch::program_latency(program, config) / ms);

  // Cross-check the analytic pipeline against the cycle engine, which
  // schedules every matrix-vector pass. Scratchpads and bandwidth are
  // sized never to stall, so only the inter-bank dependencies remain.
  const auto pipe = arch::analyze_pipeline(report);
  arch::AcceleratorConfig ideal = config;
  ideal.cycle_ifmap_kb = 1e5;
  ideal.cycle_filter_kb = 1e5;
  ideal.cycle_ofmap_kb = 1e5;
  ideal.cycle_bandwidth_gbps = 1e6;
  const auto schedule = arch::simulate_cycles(report, ideal);
  std::printf(
      "\npipeline cross-check: analytic fill+bottleneck %.1f us vs "
      "simulated makespan %.1f us (%ld passes scheduled); bottleneck bank "
      "%d runs at %.1f%% utilization\n",
      (pipe.fill_latency + pipe.sample_interval) / us,
      schedule.makespan_seconds / us, schedule.total_tiles,
      pipe.bottleneck_bank,
      100.0 * schedule.banks[static_cast<std::size_t>(pipe.bottleneck_bank)]
                  .utilization);

  // A coarser-wire alternative: better accuracy, larger arrays.
  arch::AcceleratorConfig accurate = config;
  accurate.crossbar_size = 64;
  accurate.interconnect_node_nm = 90;
  const auto report2 = sim::simulate(network, accurate);
  std::printf("\nalternative (crossbar 64, 90 nm wires): error %.2f%% vs "
              "%.2f%%, area %.1f vs %.1f mm^2\n",
              100 * report2.max_error_rate, 100 * report.max_error_rate,
              report2.area / mm2, report.area / mm2);
  return 0;
}
