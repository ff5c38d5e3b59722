// Table II: validation of MNSIM's behavior-level models against the
// circuit-level baseline.
//
// Workload: a 3-layer fully-connected NN with two 128x128 network layers,
// 90 nm CMOS (paper Sec. VII-A). The "SPICE" column is this repository's
// circuit-level substrate (sparse-MNA Newton solve of the full crossbar
// resistor network, Elmore-settled latency, Monte-Carlo accuracy) — see
// DESIGN.md's substitution table.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "arch/accelerator.hpp"
#include "bench_common.hpp"
#include "circuit/decoder.hpp"
#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/delay.hpp"
#include "tech/interconnect.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace mnsim;
using namespace mnsim::units;

int main() {
  // Two 128x128 weight layers, no bias rows so each layer is exactly one
  // crossbar pair (the paper's validation circuit).
  nn::Network net;
  net.name = "validation-3layer";
  net.layers.push_back(nn::Layer::fully_connected("fc1", 128, 128, false));
  net.layers.push_back(nn::Layer::fully_connected("fc2", 128, 128, false));
  net.input_bits = 8;
  net.weight_bits = 4;

  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 90;
  cfg.crossbar_size = 128;
  cfg.interconnect_node_nm = 45;

  const auto report = arch::simulate_accelerator(net, cfg);
  const auto device = cfg.device();
  const double r = tech::interconnect_tech(cfg.interconnect_node_nm)
                       .segment_resistance.value();

  // ---- MNSIM side -----------------------------------------------------------
  double mnsim_comp_power = 0.0;  // decoder + crossbar, all banks
  for (const auto& bank : report.banks) {
    mnsim_comp_power +=
        bank.mapping.unit_count *
        (bank.unit.crossbars.dynamic_power +
         bank.unit.decoders.dynamic_power + bank.unit.decoders.leakage_power);
  }
  circuit::CrossbarModel xbar;
  xbar.rows = 128;
  xbar.cols = 128;
  xbar.device = device;
  xbar.interconnect_node_nm = cfg.interconnect_node_nm;
  xbar.sense_resistance = mnsim::units::Ohms{cfg.sense_resistance};
  circuit::DecoderModel dec{128, circuit::DecoderKind::kComputationOriented,
                            cfg.cmos()};
  const double mnsim_read_power = xbar.read_power().value() +
                                  dec.ppa().dynamic_power +
                                  dec.ppa().leakage_power;
  const double mnsim_energy = report.energy_per_sample;
  const double mnsim_latency = report.sample_latency;
  const double mnsim_accuracy = report.relative_accuracy;

  // ---- circuit-level side ----------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  auto spec = spice::CrossbarSpec::uniform(
      128, 128, device, r, cfg.sense_resistance,
      device.harmonic_mean_resistance().value());
  const auto sol = spice::solve_crossbar(spec);
  // 4 crossbars total (2 layers x signed pair) + the same decoders.
  const double spice_comp_power =
      4.0 * sol.total_power +
      4.0 * (dec.ppa().dynamic_power + dec.ppa().leakage_power);

  // Single selected cell read.
  spice::Netlist read_nl(device);
  auto in_node = read_nl.add_node();
  auto mid = read_nl.add_node();
  read_nl.add_source(in_node, device.v_read.value());
  read_nl.add_memristor(in_node, mid,
                        device.harmonic_mean_resistance().value());
  read_nl.add_resistor(mid, spice::kGround, cfg.sense_resistance);
  auto read_dc = spice::solve_dc(read_nl);
  const double spice_read_power =
      spice::total_source_power(read_nl, read_dc) +
      dec.ppa().dynamic_power + dec.ppa().leakage_power;

  // Latency: Elmore-settled crossbar + the same digital read chain.
  const double cap = tech::interconnect_tech(cfg.interconnect_node_nm)
                         .segment_capacitance.value();
  const double elmore =
      spice::crossbar_settling_latency(spec, cap, cfg.output_bits);
  double spice_latency = report.sample_latency;
  for (const auto& bank : report.banks) {
    spice_latency +=
        (elmore - bank.unit.crossbars.latency);  // swap the settle model
  }
  const double spice_energy =
      mnsim_energy * (spice_comp_power + (report.power - mnsim_comp_power)) /
      report.power * spice_latency / mnsim_latency;

  // Accuracy: circuit-level per-layer average epsilon -> Monte-Carlo.
  const auto ideal = spice::ideal_column_outputs(spec);
  const double eps_circuit = std::fabs(
      (ideal.back() - sol.column_output_voltage.back()) / ideal.back());
  nn::MonteCarloConfig mc;
  mc.samples = 100;
  mc.weight_draws = 20;  // the paper's 20 weight samples x 100 inputs
  const auto mc_result =
      nn::run_monte_carlo_network(net, {eps_circuit, eps_circuit}, mc);
  const double spice_accuracy = mc_result.relative_accuracy;
  auto t1 = std::chrono::steady_clock::now();

  // ---- table ------------------------------------------------------------------
  util::Table table(
      "Table II: validation vs circuit level (3-layer NN, two 128x128 "
      "layers, 90 nm CMOS)");
  table.set_header({"Metric", "MNSIM", "Circuit-level", "Error"});
  auto row = [&](const char* name, double a, double b, const char* unit) {
    table.add_row({name, util::Table::num(a, 4) + unit,
                   util::Table::num(b, 4) + unit,
                   util::Table::num(100.0 * (a - b) / b, 2) + "%"});
  };
  row("Computation Power (Decoder+Crossbar)", mnsim_comp_power / mW,
      spice_comp_power / mW, " mW");
  row("Read Power (Decoder+Crossbar)", mnsim_read_power / mW,
      spice_read_power / mW, " mW");
  row("Computation Energy (3-layer ANN)", mnsim_energy / uJ,
      spice_energy / uJ, " uJ");
  row("Latency", mnsim_latency / ns, spice_latency / ns, " ns");
  row("Average Relative Accuracy", 100.0 * mnsim_accuracy,
      100.0 * spice_accuracy, " %");
  table.print();

  bench::paper_note(
      "Table II: comp power 17.20 vs 16.34 mW (+5.26%), read power 2.39 vs "
      "2.44 mW (-2.05%), energy 0.525 vs 0.487 uJ (+7.73%), latency 381.49 "
      "vs 405.50 ns (-5.92%), accuracy 95.41 vs 94.57 % (-0.89%). All "
      "model-vs-circuit errors expected below 10%.");

  util::CsvWriter csv;
  csv.set_header({"metric", "mnsim", "circuit"});
  csv.add_row({"comp_power_mw", std::to_string(mnsim_comp_power / mW),
               std::to_string(spice_comp_power / mW)});
  csv.add_row({"read_power_mw", std::to_string(mnsim_read_power / mW),
               std::to_string(spice_read_power / mW)});
  csv.add_row({"energy_uj", std::to_string(mnsim_energy / uJ),
               std::to_string(spice_energy / uJ)});
  csv.add_row({"latency_ns", std::to_string(mnsim_latency / ns),
               std::to_string(spice_latency / ns)});
  csv.add_row({"relative_accuracy", std::to_string(mnsim_accuracy),
               std::to_string(spice_accuracy)});
  bench::save_csv(csv, "table2_validation.csv");

  std::printf("circuit-level reference runtime: %.2f s\n",
              std::chrono::duration<double>(t1 - t0).count());
  return 0;
}
