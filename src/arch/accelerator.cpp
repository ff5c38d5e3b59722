#include "arch/accelerator.hpp"

#include <algorithm>

#include "accuracy/digital_error.hpp"
#include "check/check.hpp"
#include "check/config_check.hpp"
#include "circuit/buffer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace mnsim::arch {

BreakdownItem AcceleratorBreakdown::total() const {
  BreakdownItem t;
  for (const BreakdownItem* item :
       {&crossbars, &input_dacs, &read_circuits, &decoders, &digital,
        &adder_trees, &neurons, &pooling, &buffers, &interfaces}) {
    t.area += item->area;
    t.energy += item->energy;
  }
  return t;
}

double AcceleratorBreakdown::read_circuit_area_share() const {
  const auto t = total();
  return t.area > 0 ? read_circuits.area / t.area : 0.0;
}

double AcceleratorBreakdown::read_circuit_energy_share() const {
  const auto t = total();
  return t.energy > 0 ? read_circuits.energy / t.energy : 0.0;
}

namespace {

// Accumulates one bank into the module-class breakdown using its
// representative full unit scaled to the bank's unit count.
void accumulate_breakdown(AcceleratorBreakdown& bd, const BankReport& bank) {
  const double units = static_cast<double>(bank.mapping.unit_count);
  const double passes = static_cast<double>(bank.iterations);
  const auto& u = bank.unit;

  bd.crossbars.area += units * u.crossbars.area;
  bd.crossbars.energy += units * passes * u.crossbar_energy;
  bd.input_dacs.area += units * u.dacs.area;
  bd.input_dacs.energy += units * passes * u.dac_energy;
  bd.read_circuits.area +=
      units * (u.adcs.area + u.muxes.area + u.subtractors.area);
  bd.read_circuits.energy += units * passes * u.adc_energy;
  bd.decoders.area += units * u.decoders.area;
  bd.digital.area += units * u.control.area;
  bd.digital.energy += units * passes * u.digital_energy;

  auto peripheral = [&](BreakdownItem& item, const circuit::Ppa& p) {
    item.area += p.area;
    item.energy += passes * p.dynamic_power * p.latency;
  };
  peripheral(bd.adder_trees, bank.adder_tree);
  peripheral(bd.neurons, bank.neurons);
  peripheral(bd.pooling, bank.pooling);
  peripheral(bd.pooling, bank.pooling_buffer);
  peripheral(bd.buffers, bank.output_buffer);
}

}  // namespace

AcceleratorReport simulate_accelerator(const nn::Network& network,
                                       const AcceleratorConfig& config,
                                       CircuitCheckMemo* memo) {
  std::vector<AcceleratorConfig> per_bank;
  int banks = 0;
  for (const auto& layer : network.layers)
    if (layer.is_weighted()) ++banks;
  per_bank.assign(static_cast<std::size_t>(banks > 0 ? banks : 1), config);
  return simulate_accelerator(network, per_bank, memo);
}

AcceleratorReport simulate_accelerator(
    const nn::Network& network,
    const std::vector<AcceleratorConfig>& per_bank_configs,
    CircuitCheckMemo* memo) {
  obs::Span span("arch.simulate_accelerator");
  network.validate();
  if (per_bank_configs.empty())
    throw std::invalid_argument("simulate_accelerator: no configurations");
  for (const auto& cfg : per_bank_configs) cfg.validate();
  const AcceleratorConfig& config = per_bank_configs.front();

  AcceleratorReport rep;

  // Semantic pre-flight ([check] Enabled): shape chain, mapping
  // feasibility and configuration consistency, before any bank is built.
  // Errors throw with the full diagnosis; warnings ride in the report
  // (or block too, under Warnings_As_Errors).
  if (config.check_preflight) {
    // The front configuration vets the whole system; heterogeneous
    // designs additionally get a consistency pass per extra config.
    check::DiagnosticList diags = check::check_system(network, config);
    for (std::size_t i = 1; i < per_bank_configs.size(); ++i)
      diags.merge(check::check_config_consistency(per_bank_configs[i]));
    if (config.check_warnings_as_errors) diags.promote_warnings();
    if (diags.has_errors()) throw check::CheckError(std::move(diags));
    rep.diagnostics = diags.take();
  }
  const auto cmos = config.cmos();

  // Pair each weighted layer with its attached pooling and the next
  // weighted layer (paper Sec. III-A: pooling/ReLU/... are peripheral
  // functions of the preceding computation bank).
  std::vector<const nn::Layer*> weighted;
  std::vector<const nn::Layer*> pooling_after;
  for (const auto& layer : network.layers) {
    if (layer.is_weighted()) {
      weighted.push_back(&layer);
      pooling_after.push_back(nullptr);
    } else if (layer.kind == nn::LayerKind::kPooling && !weighted.empty()) {
      pooling_after.back() = &layer;
    }
  }

  if (per_bank_configs.size() != weighted.size())
    throw std::invalid_argument(
        "simulate_accelerator: need one configuration per weighted layer (" +
        std::to_string(weighted.size()) + "), got " +
        std::to_string(per_bank_configs.size()));

  std::vector<double> eps_worst;
  std::vector<double> eps_avg;
  // One crossbar solve cache shared by every bank's fault circuit-check:
  // the checks all clip to fault.circuit_check_size, so after the first
  // bank builds the topology the remaining banks refill it (cache_hits
  // in the solver diagnostics below). Unused when a sweep's memo serves
  // the checks.
  spice::CrossbarSolveCache solve_cache;
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    // Watchdog poll (docs/ROBUSTNESS.md): bank boundaries are the
    // coarsest rung of the cancellation ladder — the finer ones sit in
    // the CG/LU/Newton loops a bank's circuit checks may enter.
    util::throw_if_cancelled("arch.bank");
    obs::Span bank_span("arch.bank");
    const nn::Layer* next =
        i + 1 < weighted.size() ? weighted[i + 1] : nullptr;
    BankReport bank = simulate_bank(*weighted[i], pooling_after[i], next,
                                    network, per_bank_configs[i],
                                    &solve_cache, memo);
    rep.area += bank.area;
    rep.leakage_power += bank.leakage_power;
    rep.sample_latency += bank.sample_latency;
    rep.pipeline_cycle = std::max(rep.pipeline_cycle, bank.pass_latency);
    rep.energy_per_sample += bank.energy_per_sample;
    rep.total_crossbars += bank.mapping.total_crossbars;
    rep.total_units += bank.mapping.unit_count;
    eps_worst.push_back(bank.epsilon_worst);
    eps_avg.push_back(bank.epsilon_average);
    rep.solver.absorb(bank.solver);
    accumulate_breakdown(rep.breakdown, bank);
    rep.banks.push_back(std::move(bank));
  }
  rep.fault_config = per_bank_configs.front().fault;

  obs::Registry& reg = obs::Registry::global();
  reg.add("arch.banks", static_cast<long>(rep.banks.size()));
  reg.add("arch.crossbars", rep.total_crossbars);
  if (rep.solver.faults_injected)
    reg.add("fault.faults_injected", rep.solver.faults_injected);

  // Accelerator I/O interfaces (Sec. III-A).
  {
    obs::Span io_span("arch.interfaces");
    circuit::IoInterfaceModel io_in;
    io_in.wires = config.interface_in;
    io_in.sample_bits = network.input_size() * network.input_bits;
    io_in.bus_clock = units::Hertz{config.bus_clock};
    io_in.tech = cmos;
    rep.io_input = io_in.ppa();

    circuit::IoInterfaceModel io_out;
    io_out.wires = config.interface_out;
    io_out.sample_bits = network.output_size() * config.output_bits;
    io_out.bus_clock = units::Hertz{config.bus_clock};
    io_out.tech = cmos;
    rep.io_output = io_out.ppa();
  }

  rep.breakdown.interfaces.area = rep.io_input.area + rep.io_output.area;
  rep.breakdown.interfaces.energy =
      rep.io_input.dynamic_power * rep.io_input.latency +
      rep.io_output.dynamic_power * rep.io_output.latency;

  rep.area += rep.io_input.area + rep.io_output.area;
  rep.leakage_power +=
      rep.io_input.leakage_power + rep.io_output.leakage_power;
  rep.sample_latency += rep.io_input.latency + rep.io_output.latency;
  rep.energy_per_sample +=
      rep.io_input.dynamic_power * rep.io_input.latency +
      rep.io_output.dynamic_power * rep.io_output.latency;

  rep.power = rep.sample_latency > 0
                  ? rep.energy_per_sample / rep.sample_latency
                  : 0.0;

  // Accuracy propagation across banks (Eq. 15), then digitization
  // (Eq. 12-14) at the read-circuit quantization.
  const int k = 1 << config.output_bits;
  rep.epsilon_worst = accuracy::propagate_layers(eps_worst).empty()
                          ? 0.0
                          : accuracy::propagate_layers(eps_worst).back();
  rep.epsilon_average = accuracy::propagate_layers(eps_avg).back();
  rep.max_error_rate = accuracy::max_error_rate(k, rep.epsilon_worst);
  rep.avg_error_rate = accuracy::avg_error_rate(k, rep.epsilon_average);
  rep.relative_accuracy = 1.0 - rep.avg_error_rate;
  return rep;
}

}  // namespace mnsim::arch
