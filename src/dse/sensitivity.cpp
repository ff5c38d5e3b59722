#include "dse/sensitivity.hpp"

#include <algorithm>

#include "arch/circuit_check_memo.hpp"
#include "tech/interconnect.hpp"

namespace mnsim::dse {

namespace {

SensitivityEntry diff(const std::string& knob, const DesignMetrics& base,
                      const EvaluatedDesign& varied) {
  SensitivityEntry e;
  e.knob = knob;
  e.varied_point = varied.point;
  auto rel = [](double v, double b) { return b != 0.0 ? (v - b) / b : 0.0; };
  e.d_area = rel(varied.metrics.area, base.area);
  e.d_energy = rel(varied.metrics.energy_per_sample, base.energy_per_sample);
  e.d_latency = rel(varied.metrics.latency, base.latency);
  e.d_error = rel(varied.metrics.max_error_rate, base.max_error_rate);
  return e;
}

}  // namespace

SensitivityReport analyze_sensitivity(const nn::Network& network,
                                      const arch::AcceleratorConfig& base,
                                      const DesignPoint& point) {
  Constraints unconstrained;
  unconstrained.max_error = 1.0;  // record everything

  // The neighbours share the base point's fault circuits (the checks
  // clip to fault.circuit_check_size), so one memo solves each once.
  arch::CircuitCheckMemo memo;
  SensitivityReport report;
  report.base_point = point;
  report.base_metrics =
      evaluate_design(network, base, point, unconstrained, &memo).metrics;

  auto probe = [&](const std::string& knob, DesignPoint varied) {
    report.entries.push_back(
        diff(knob, report.base_metrics,
             evaluate_design(network, base, varied, unconstrained, &memo)));
  };

  // Crossbar size: halve / double within [4, 1024].
  if (point.crossbar_size / 2 >= 4) {
    DesignPoint p = point;
    p.crossbar_size /= 2;
    p.parallelism = std::min(p.parallelism, p.crossbar_size);
    probe("crossbar_size/2", p);
  }
  if (point.crossbar_size * 2 <= 1024) {
    DesignPoint p = point;
    p.crossbar_size *= 2;
    probe("crossbar_size*2", p);
  }

  // Parallelism: halve / double (0 = full parallel has no 'up' step).
  const int effective = point.parallelism == 0 ? point.crossbar_size
                                               : point.parallelism;
  if (effective / 2 >= 1) {
    DesignPoint p = point;
    p.parallelism = effective / 2;
    probe("parallelism/2", p);
  }
  if (point.parallelism != 0 && effective * 2 <= point.crossbar_size) {
    DesignPoint p = point;
    p.parallelism = effective * 2;
    probe("parallelism*2", p);
  }

  // Interconnect node: step through the paper sweep list.
  const auto& nodes = tech::kInterconnectSweep;
  const auto* it =
      std::find(std::begin(nodes), std::end(nodes), point.interconnect_node);
  if (it != std::end(nodes)) {
    if (it != std::begin(nodes)) {
      DesignPoint p = point;
      p.interconnect_node = *(it - 1);  // finer wires
      probe("interconnect_finer", p);
    }
    if (it + 1 != std::end(nodes)) {
      DesignPoint p = point;
      p.interconnect_node = *(it + 1);  // coarser wires
      probe("interconnect_coarser", p);
    }
  }
  return report;
}

}  // namespace mnsim::dse
