#include "nn/functional_sim.hpp"

#include <gtest/gtest.h>
#include <stdexcept>

#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

MonteCarloConfig fast() {
  MonteCarloConfig c;
  c.samples = 20;
  c.weight_draws = 3;
  return c;
}

TEST(MonteCarlo, ZeroErrorIsPerfectAccuracy) {
  auto net = make_autoencoder_64_16_64();
  auto r = run_monte_carlo_network(net, {0.0, 0.0}, fast());
  EXPECT_DOUBLE_EQ(r.avg_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.relative_accuracy, 1.0);
}

TEST(MonteCarlo, AccuracyDegradesWithEpsilon) {
  auto net = make_autoencoder_64_16_64();
  auto small = run_monte_carlo_network(net, {0.01, 0.01}, fast());
  auto large = run_monte_carlo_network(net, {0.10, 0.10}, fast());
  EXPECT_GT(small.relative_accuracy, large.relative_accuracy);
  EXPECT_GT(large.avg_error_rate, 0.0);
  EXPECT_GE(large.max_error_rate, large.avg_error_rate);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  auto net = make_autoencoder_64_16_64();
  auto a = run_monte_carlo_network(net, {0.05, 0.05}, fast());
  auto b = run_monte_carlo_network(net, {0.05, 0.05}, fast());
  EXPECT_DOUBLE_EQ(a.avg_error_rate, b.avg_error_rate);
}

TEST(MonteCarlo, ObservedErrorTracksInjectedMagnitude) {
  auto net = make_autoencoder_64_16_64();
  const double eps = 0.08;
  auto r = run_monte_carlo_network(net, {eps, eps}, fast());
  // Two layers of +-8 % uniform noise: output deviation should land well
  // within [0, compounded bound].
  const double bound = (1 + eps) * (1 + eps) - 1;
  EXPECT_GT(r.avg_error_rate, 0.001);
  EXPECT_LT(r.avg_error_rate, bound);
}

TEST(Electrical, SmallLayerTracksFixedPoint) {
  // An 8x4 layer evaluated through the full circuit-level solve.
  IntMatrix weights = {{10, -20, 30, 5, -7, 12, 0, 9},
                       {-3, 14, -25, 8, 11, -6, 2, -1},
                       {7, 7, 7, 7, 7, 7, 7, 7},
                       {-30, 25, -20, 15, -10, 5, -2, 1}};
  std::vector<int> inputs = {255, 128, 64, 32, 200, 16, 90, 150};
  auto r = electrical_layer_outputs(weights, inputs, /*weight_bits=*/8,
                                    /*input_bits=*/8, tech::default_rram(),
                                    0.022, 60.0);
  ASSERT_EQ(r.analog.size(), 4u);
  // Signs must survive the analog path.
  for (std::size_t o = 0; o < 4; ++o) {
    if (std::abs(r.ideal[o]) > 500.0) {
      EXPECT_GT(r.analog[o] * r.ideal[o], 0.0) << "output " << o;
    }
  }
  EXPECT_LT(r.mean_relative_error, 0.15);
  EXPECT_GT(r.mean_relative_error, 0.0);
}

TEST(Electrical, ShapeMismatchThrows) {
  IntMatrix weights = {{1, 2}};
  EXPECT_THROW(electrical_layer_outputs(weights, {1}, 8, 8,
                                        tech::default_rram(), 0.022, 60.0),
               std::invalid_argument);
  EXPECT_THROW(electrical_layer_outputs({}, {}, 8, 8, tech::default_rram(),
                                        0.022, 60.0),
               std::invalid_argument);
}

TEST(Electrical, InputCodeRangeChecked) {
  IntMatrix weights = {{1, 2}};
  EXPECT_THROW(electrical_layer_outputs(weights, {300, 0}, 8, 8,
                                        tech::default_rram(), 0.022, 60.0),
               std::invalid_argument);
}


TEST(MonteCarlo, RejectsDegenerateSignalBits) {
  // signal_bits = 0 makes the quantizer LSB a division by zero: every
  // output lands in bucket 0 and the run silently reports a zero error
  // rate for ANY perturbation (and SIGFPEs under -DMNSIM_FPE). The
  // config must be rejected up front.
  auto net = make_autoencoder_64_16_64();
  auto cfg = fast();
  cfg.signal_bits = 0;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
  cfg.signal_bits = 31;  // would overflow the int shift
  EXPECT_THROW(run_monte_carlo_network(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
}
}  // namespace
}  // namespace mnsim::nn
