// Cross-module integration tests: the validation experiments of paper
// Sec. VII-A/B in miniature — behavior-level estimates checked against the
// circuit-level substrate, plus end-to-end flow determinism.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "accuracy/voltage_error.hpp"
#include "arch/accelerator.hpp"
#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/export.hpp"
#include "tech/interconnect.hpp"

namespace mnsim {
namespace {

TEST(Integration, CrossbarPowerModelTracksCircuitLevel) {
  // Average-case behavior-level crossbar power vs the solved network
  // (uniform cells at the harmonic mean): the Table II validation, in
  // miniature. Error must be within 15 %.
  const auto device = tech::default_rram();
  const double r =
      tech::interconnect_tech(45).segment_resistance.value();
  for (int size : {16, 32, 64}) {
    circuit::CrossbarModel model;
    model.rows = size;
    model.cols = size;
    model.device = device;
    model.interconnect_node_nm = 45;
    const double estimated = model.compute_power_average().value();

    auto spec = spice::CrossbarSpec::uniform(
        size, size, device, r, model.sense_resistance.value(),
        device.harmonic_mean_resistance().value());
    const auto sol = spice::solve_crossbar(spec);
    EXPECT_NEAR(estimated, sol.total_power, 0.15 * sol.total_power)
        << "size " << size;
  }
}

TEST(Integration, AccuracyModelTracksCircuitLevelWorstCase) {
  // Worst-case (all r_min) far-column error: model vs circuit level,
  // within 2 percentage points for the Fig. 5 regime.
  const auto device = tech::default_rram();
  for (int size : {16, 32, 64}) {
    const units::Ohms r = tech::interconnect_tech(45).segment_resistance;
    accuracy::CrossbarErrorInputs in;
    in.rows = size;
    in.cols = size;
    in.device = device;
    in.segment_resistance = r;
    in.sense_resistance = units::Ohms{60.0};
    const auto model = accuracy::estimate_voltage_error(in);

    auto spec = spice::CrossbarSpec::uniform(size, size, device, r.value(),
                                             60.0, device.r_min.value());
    const auto sol = spice::solve_crossbar(spec);
    const auto ideal = spice::ideal_column_outputs(spec);
    const double spice_err = std::fabs(
        (ideal.back() - sol.column_output_voltage.back()) / ideal.back());
    EXPECT_NEAR(model.worst, spice_err, 0.02) << "size " << size;
  }
}

TEST(Integration, BehaviorModelIsOrdersOfMagnitudeFaster) {
  // The Table III claim in miniature: the behavior-level estimate of a
  // 64x64 crossbar must beat the circuit-level solve by >= 100x.
  const auto device = tech::default_rram();
  const units::Ohms r = tech::interconnect_tech(45).segment_resistance;

  auto t0 = std::chrono::steady_clock::now();
  accuracy::CrossbarErrorInputs in;
  in.rows = 64;
  in.cols = 64;
  in.device = device;
  in.segment_resistance = r;
  in.sense_resistance = units::Ohms{60.0};
  for (int i = 0; i < 10; ++i) (void)accuracy::estimate_voltage_error(in);
  auto t1 = std::chrono::steady_clock::now();
  auto spec = spice::CrossbarSpec::uniform(64, 64, device, r.value(), 60.0,
                                           device.r_min.value());
  (void)spice::solve_crossbar(spec);
  auto t2 = std::chrono::steady_clock::now();

  const double model_time =
      std::chrono::duration<double>(t1 - t0).count() / 10;
  const double spice_time = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GT(spice_time / model_time, 100.0);
}

TEST(Integration, MonteCarloAgreesWithAnalyticAverage) {
  // Inject the analytic per-layer average error into the functional
  // simulator; the observed average digital error must land within a
  // factor of ~3 of the Eq. 14 prediction (uniform-noise vs bound).
  auto net = nn::make_autoencoder_64_16_64();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  auto rep = arch::simulate_accelerator(net, cfg);
  std::vector<double> eps;
  for (const auto& b : rep.banks) eps.push_back(b.epsilon_average);

  nn::MonteCarloConfig mc;
  mc.samples = 50;
  mc.weight_draws = 5;
  auto result = nn::run_monte_carlo_network(net, eps, mc);
  EXPECT_GT(result.relative_accuracy, 0.90);
  if (rep.avg_error_rate > 0) {
    EXPECT_LT(result.avg_error_rate, 3.0 * rep.avg_error_rate + 0.01);
  }
}

TEST(Integration, SimulationIsDeterministic) {
  auto net = nn::make_vgg16();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.crossbar_size = 128;
  auto a = arch::simulate_accelerator(net, cfg);
  auto b = arch::simulate_accelerator(net, cfg);
  EXPECT_DOUBLE_EQ(a.area, b.area);
  EXPECT_DOUBLE_EQ(a.energy_per_sample, b.energy_per_sample);
  EXPECT_DOUBLE_EQ(a.max_error_rate, b.max_error_rate);
}

TEST(Integration, NetlistExportOfMappedCrossbar) {
  // The Sec. IV-A escape hatch: generate a SPICE deck for one crossbar of
  // a mapped layer.
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(
      8, 8, device, tech::interconnect_tech(45).segment_resistance.value(),
      60.0, device.r_min.value());
  auto nl = spice::build_crossbar_netlist(spec, nullptr);
  const std::string deck = spice::export_spice(nl, "mapped layer");
  // 64 cells, 8 sources, 8 sense resistors must all appear.
  EXPECT_NE(deck.find("Vin7"), std::string::npos);
  EXPECT_NE(deck.find("Rs7"), std::string::npos);
  EXPECT_NE(deck.find("BX7_7"), std::string::npos);
  EXPECT_EQ(deck.find("Vin8"), std::string::npos);
}

TEST(Integration, JpegAutoencoderAccuracyValidation) {
  // The paper's accuracy-model validation workload (64x16x64): analytic
  // relative accuracy must be high (>97 %) at 45 nm wires, and the error
  // rate of the accuracy model vs Monte-Carlo must be small (paper: <1 %
  // absolute on relative accuracy).
  auto net = nn::make_autoencoder_64_16_64();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 90;
  cfg.interconnect_node_nm = 45;
  auto rep = arch::simulate_accelerator(net, cfg);
  EXPECT_GT(rep.relative_accuracy, 0.97);

  std::vector<double> eps;
  for (const auto& b : rep.banks) eps.push_back(b.epsilon_average);
  nn::MonteCarloConfig mc;
  mc.samples = 100;
  mc.weight_draws = 5;
  auto mc_result = nn::run_monte_carlo_network(net, eps, mc);
  EXPECT_NEAR(mc_result.relative_accuracy, rep.relative_accuracy, 0.03);
}

}  // namespace
}  // namespace mnsim
