#include "nn/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

TEST(Stats, MlpCharacterization) {
  auto net = make_mlp({64, 32, 10});
  auto s = characterize(net);
  ASSERT_EQ(s.layers.size(), 2u);
  EXPECT_EQ(s.layers[0].weights, 65l * 32);  // + bias row
  EXPECT_EQ(s.layers[0].macs_per_sample, s.layers[0].weights);
  EXPECT_DOUBLE_EQ(s.conv_mac_share, 0.0);
  EXPECT_DOUBLE_EQ(s.macs_per_weight, 1.0);  // FC: each weight used once
}

TEST(Stats, Vgg16ConvDominatesMacs) {
  auto s = characterize(make_vgg16());
  EXPECT_EQ(s.layers.size(), 16u);
  // Conv layers hold ~11 % of weights but ~99 % of the MACs.
  EXPECT_GT(s.conv_mac_share, 0.95);
  EXPECT_GT(s.macs_per_weight, 50.0);
  // VGG-16 runs ~15.5 GMACs per 224x224 sample.
  EXPECT_GT(s.total_macs_per_sample, 14l * 1000 * 1000 * 1000);
  EXPECT_LT(s.total_macs_per_sample, 17l * 1000 * 1000 * 1000);
}

TEST(Stats, UtilizationPerfectWhenShapesDivide) {
  auto net = make_mlp({128, 128});
  net.layers[0].has_bias = false;
  EXPECT_DOUBLE_EQ(crossbar_utilization(net, 128), 1.0);
  // The bias row forces a second block row at size 128.
  auto biased = make_mlp({128, 128});
  EXPECT_NEAR(crossbar_utilization(biased, 128), 129.0 / 256.0, 1e-9);
}

TEST(Stats, SmallerCrossbarsWasteLess) {
  auto net = make_vgg16();
  EXPECT_GT(crossbar_utilization(net, 32), crossbar_utilization(net, 512));
  EXPECT_THROW(crossbar_utilization(net, 0), std::invalid_argument);
}

TEST(MonteCarloNetwork, CnnZeroEpsIsExact) {
  Network net;
  net.type = NetworkType::kCnn;
  net.name = "tiny";
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 64, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 5;
  mc.weight_draws = 2;
  auto r = run_monte_carlo_network(net, {0.0, 0.0}, mc);
  EXPECT_DOUBLE_EQ(r.avg_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.relative_accuracy, 1.0);
}

TEST(MonteCarloNetwork, CnnErrorPropagates) {
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::convolution("c2", 4, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::fully_connected("fc", 256, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 5;
  mc.weight_draws = 2;
  auto small = run_monte_carlo_network(net, {0.01, 0.01, 0.01}, mc);
  auto large = run_monte_carlo_network(net, {0.08, 0.08, 0.08}, mc);
  EXPECT_GT(large.avg_error_rate, small.avg_error_rate);
  EXPECT_GT(large.avg_error_rate, 0.0);
}

TEST(MonteCarloNetwork, ThreadCountIsBitIdentical) {
  // The determinism contract of the parallel port: every draw runs on
  // its own (seed, draw)-derived RNG stream and partials reduce in draw
  // order, so the thread count must never change a single bit.
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 64, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 4;
  mc.weight_draws = 6;
  mc.threads = 1;
  const auto serial = run_monte_carlo_network(net, {0.05, 0.05}, mc);
  mc.threads = 4;
  const auto parallel = run_monte_carlo_network(net, {0.05, 0.05}, mc);

  EXPECT_DOUBLE_EQ(parallel.avg_error_rate, serial.avg_error_rate);
  EXPECT_DOUBLE_EQ(parallel.max_error_rate, serial.max_error_rate);
  EXPECT_DOUBLE_EQ(parallel.relative_accuracy, serial.relative_accuracy);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 4);

  // The same contract with defect maps on the conv and FC crossbars.
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.05;
  faults.stuck_at_one_rate = 0.02;
  faults.seed = 5;
  mc.threads = 1;
  const auto serial_faulted =
      run_monte_carlo_network(net, {0.05, 0.05}, mc, faults);
  mc.threads = 4;
  const auto parallel_faulted =
      run_monte_carlo_network(net, {0.05, 0.05}, mc, faults);

  EXPECT_GT(serial_faulted.faults_injected, 0);
  EXPECT_EQ(parallel_faulted.faults_injected, serial_faulted.faults_injected);
  EXPECT_DOUBLE_EQ(parallel_faulted.avg_error_rate,
                   serial_faulted.avg_error_rate);
  EXPECT_DOUBLE_EQ(parallel_faulted.max_error_rate,
                   serial_faulted.max_error_rate);
  EXPECT_DOUBLE_EQ(parallel_faulted.relative_accuracy,
                   serial_faulted.relative_accuracy);
  EXPECT_EQ(parallel_faulted.threads, 4);
}

TEST(MonteCarloNetwork, FcFanInMismatchIsRejected) {
  // The flattened conv output (4 channels x 4x4 after pooling = 64) does
  // not match the FC fan-in of 32; the forward pass must refuse instead
  // of silently truncating the feature map (MN-NN-001).
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 32, 10));
  net.validate();  // per-layer checks pass; the chain mismatch is runtime

  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  try {
    run_monte_carlo_network(net, {0.0, 0.0}, mc);
    FAIL() << "expected fan-in mismatch to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-NN-001"), std::string::npos)
        << e.what();
  }
}

TEST(MonteCarloNetwork, UnevenPoolingIsRejected) {
  // A 2x2 pool over a 7x7 map used to floor-divide and silently drop the
  // trailing row and column; it must now be a hard error (MN-NN-003).
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 7, 7, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 36, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  try {
    run_monte_carlo_network(net, {0.0, 0.0}, mc);
    FAIL() << "expected uneven pooling to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-NN-003"), std::string::npos)
        << e.what();
  }
}

TEST(MonteCarlo, ClampPathsAgreeAcrossVariants) {
  // A disabled FaultConfig takes the fault-free branch whatever its
  // seed: identical draws through identical arithmetic, so the run must
  // equal the 3-argument call bit for bit. Large eps exercises the upper
  // output clamp.
  auto net = make_autoencoder_64_16_64();
  MonteCarloConfig mc;
  mc.samples = 10;
  mc.weight_draws = 3;
  const std::vector<double> eps = {0.2, 0.2};
  fault::FaultConfig disabled;
  disabled.seed = 99;
  ASSERT_FALSE(disabled.enabled());
  const auto plain = run_monte_carlo_network(net, eps, mc);
  const auto with_config = run_monte_carlo_network(net, eps, mc, disabled);
  EXPECT_DOUBLE_EQ(with_config.avg_error_rate, plain.avg_error_rate);
  EXPECT_DOUBLE_EQ(with_config.max_error_rate, plain.max_error_rate);
  EXPECT_DOUBLE_EQ(with_config.relative_accuracy, plain.relative_accuracy);
  EXPECT_GT(plain.avg_error_rate, 0.0);
  EXPECT_EQ(with_config.faults_injected, 0);
}

TEST(MonteCarloNetwork, Validation) {
  auto net = make_autoencoder_64_16_64();
  MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 3;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1}, mc),
               std::invalid_argument);
  auto cfg = mc;
  cfg.samples = 0;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
  cfg = mc;
  cfg.weight_draws = 0;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
  // VGG-16 is a valid network; it is rejected on the eps count alone.
  EXPECT_THROW(run_monte_carlo_network(make_vgg16(), {}, mc),
               std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::nn
