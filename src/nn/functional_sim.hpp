// Functional fixed-point inference with analog error injection.
//
// Cross-checks the analytic accuracy model empirically (paper Sec. VII-A:
// "Average Relative Accuracy" of Table II and the JPEG autoencoder
// validation): a network is executed in fixed point (the ideal reference
// of Sec. VI), then re-executed with each weighted layer's
// pre-quantization analog output perturbed by the crossbar error rate,
// and the two runs are compared at the output.
//
// Two perturbation sources are supported:
//  * `run_monte_carlo_network` — per-output relative error drawn
//    uniformly from [-eps_layer, +eps_layer], optionally on top of
//    seed-deterministic hard defects (fast, any conv / pooling / FC net),
//    and
//  * `electrical_layer_outputs` — one layer evaluated through the full
//    circuit-level crossbar solve with the weights actually programmed as
//    cell conductances (slow, used for small validation nets).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_model.hpp"
#include "nn/network.hpp"
#include "nn/quantization.hpp"
#include "spice/crossbar_netlist.hpp"

namespace mnsim::nn {

struct MonteCarloConfig {
  int samples = 100;          // input samples per weight draw
  int weight_draws = 20;      // random weight matrices (paper: 20)
  std::uint32_t seed = 42;
  int signal_bits = 8;        // activation quantization
  // Worker threads over the weight draws: 1 = serial, 0 = hardware
  // concurrency. Each draw runs on its own (seed, draw)-derived RNG
  // stream and the partial statistics reduce in draw order, so results
  // are bit-identical for every thread count.
  int threads = 1;
};

struct MonteCarloResult {
  // 1 - mean(|actual - ideal|) / full_scale at the network output.
  double relative_accuracy = 0.0;
  // Largest observed per-output digital deviation, normalized.
  double max_error_rate = 0.0;
  // Mean observed per-output digital deviation, normalized (compare
  // against accuracy::avg_error_rate of the propagated epsilon).
  double avg_error_rate = 0.0;
  // Echo of the RNG seed the run used, for exact reproducibility.
  std::uint32_t seed = 0;
  // Hard defects applied across all weighted layers; 0 unless the run's
  // FaultConfig is enabled.
  int faults_injected = 0;
  // Worker threads actually used for the draw sweep.
  int threads = 1;
};

// The one functional Monte-Carlo driver. `layer_eps[i]` is the analog
// error rate of the i-th weighted layer (from
// accuracy::estimate_voltage_error); throws unless there is one per
// weighted layer. Conv and FC layers run the same perturbed
// matrix-vector kernel — a convolution is one pass per output pixel over
// its padded input patch, matching the accelerator's dataflow — and max
// pooling follows its attached conv bank. FC bias weights are driven by
// a constant 1. Keep input maps modest (<= 32x32): the functional conv
// is O(pixels * channels * k^2).
//
// When `faults.enabled()`, weighted layer w gets two defect maps, drawn
// once with fault::generate_defect_map for the design's `device` (its
// kind sets the retention drift) under seed offsets 2w (positive array)
// and 2w + 1 (negative); every weight draw's perturbed pass runs on
// the weights rewritten through fault::apply_to_signed_weights. The
// ideal reference stays defect-free, so the result measures the
// inference accuracy loss caused by the defects plus the analog error.
MonteCarloResult run_monte_carlo_network(
    const Network& network, const std::vector<double>& layer_eps,
    const MonteCarloConfig& config, const fault::FaultConfig& faults = {},
    const tech::MemristorModel& device = tech::default_rram());

// Evaluates one FC layer electrically: programs the signed weights into
// positive/negative cell matrices, drives the quantized inputs as DAC
// voltages, solves both crossbars circuit-level, and returns the
// subtracted, renormalized analog outputs alongside the ideal fixed-point
// ones. `segment_resistance`/`sense_resistance` configure the arrays.
struct ElectricalLayerResult {
  std::vector<double> analog;  // reconstructed outputs (weight-scale units)
  std::vector<double> ideal;   // fixed-point reference
  double mean_relative_error = 0.0;
};

ElectricalLayerResult electrical_layer_outputs(
    const IntMatrix& weights, const std::vector<int>& inputs, int weight_bits,
    int input_bits, const tech::MemristorModel& device,
    double segment_resistance, double sense_resistance);

}  // namespace mnsim::nn
