#include "dse/hetero.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/topologies.hpp"
#include "obs/metrics.hpp"
#include "sim/json_report.hpp"

namespace mnsim::dse {
namespace {

arch::AcceleratorConfig base() {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  return c;
}

DesignSpace small_space() {
  DesignSpace s;
  s.crossbar_sizes = {32, 64, 128, 256};
  s.parallelism_degrees = {16, 0};
  s.interconnect_nodes = {28, 45, 90};
  return s;
}

TEST(Hetero, ChoosesOnePointPerBank) {
  auto net = nn::make_mlp({512, 512, 512});
  auto result = optimize_per_bank(net, base(), small_space(),
                                  Objective::kEnergy, 0.25);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.per_bank.size(), 2u);
  EXPECT_EQ(result.report.banks.size(), 2u);
  EXPECT_GT(result.bank_evaluations, 0);
}

TEST(Hetero, MeetsTheErrorConstraint) {
  auto net = nn::make_vgg16();
  auto result = optimize_per_bank(net, base(), small_space(),
                                  Objective::kEnergy, 0.40);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.report.max_error_rate, 0.40);
}

TEST(Hetero, BeatsOrMatchesUniformOnTheObjective) {
  // Per-bank freedom is a superset of uniform designs, and the greedy
  // starts at the per-bank optima, so it should never lose to the best
  // uniform feasible design by more than numerical noise.
  auto net = nn::make_vgg16();
  const double constraint = 0.40;
  auto hetero = optimize_per_bank(net, base(), small_space(),
                                  Objective::kEnergy, constraint);
  ASSERT_TRUE(hetero.feasible);

  auto uniform = explore(net, base(), small_space(), constraint);
  auto uniform_best = uniform.best(Objective::kEnergy);
  ASSERT_TRUE(uniform_best.has_value());
  EXPECT_LE(hetero.report.energy_per_sample,
            1.02 * uniform_best->metrics.energy_per_sample);
}

TEST(Hetero, MixedPointsAppearWhenLayersDiffer) {
  // VGG has tiny (27-row) and huge (25088-row) layers: their optimal
  // crossbar sizes should not coincide everywhere.
  auto net = nn::make_vgg16();
  auto result = optimize_per_bank(net, base(), small_space(),
                                  Objective::kArea, 0.50);
  ASSERT_TRUE(result.feasible);
  bool mixed = false;
  for (const auto& p : result.per_bank) {
    if (p.crossbar_size != result.per_bank.front().crossbar_size ||
        p.interconnect_node != result.per_bank.front().interconnect_node)
      mixed = true;
  }
  EXPECT_TRUE(mixed);
}

TEST(Hetero, TightBudgetForcesAccurateChoices) {
  auto net = nn::make_mlp({512, 512, 512, 512, 512});
  auto loose = optimize_per_bank(net, base(), small_space(),
                                 Objective::kArea, 0.30);
  auto tight = optimize_per_bank(net, base(), small_space(),
                                 Objective::kArea, 0.02);
  ASSERT_TRUE(loose.feasible);
  if (tight.feasible) {
    EXPECT_LE(tight.report.max_error_rate, 0.02);
    EXPECT_GE(tight.report.area, loose.report.area);  // accuracy costs area
  }
}

TEST(Hetero, InfeasibleBudgetReported) {
  auto net = nn::make_vgg16();
  auto result = optimize_per_bank(net, base(), small_space(),
                                  Objective::kArea, 1e-6);
  EXPECT_FALSE(result.feasible);
}

TEST(Hetero, InvalidConstraintThrows) {
  auto net = nn::make_mlp({64, 64});
  EXPECT_THROW(optimize_per_bank(net, base(), small_space(),
                                 Objective::kArea, 0.0),
               std::invalid_argument);
}

arch::AcceleratorConfig fault_checked() {
  auto c = base();
  c.fault.stuck_at_zero_rate = 0.01;
  c.fault.circuit_check = true;
  c.fault.circuit_check_size = 16;
  return c;
}

arch::AcceleratorConfig at(arch::AcceleratorConfig cfg, const DesignPoint& p) {
  cfg.crossbar_size = p.crossbar_size;
  cfg.parallelism = p.parallelism;
  cfg.interconnect_node_nm = p.interconnect_node;
  return cfg;
}

// optimize_per_bank for kEnergy with every candidate from a memo-free
// simulate_bank: the same candidate table and greedy repair.
std::vector<DesignPoint> memo_free_energy_choice(
    const nn::Network& net, const arch::AcceleratorConfig& cfg,
    const DesignSpace& space, double error_constraint) {
  std::vector<const nn::Layer*> weighted;
  for (const auto& layer : net.layers)
    if (layer.is_weighted()) weighted.push_back(&layer);
  const auto points = space.enumerate();
  struct Cand {
    double objective;
    double log_error;
  };
  std::vector<std::vector<Cand>> cands(weighted.size());
  std::vector<std::size_t> choice(weighted.size(), 0);
  for (std::size_t b = 0; b < weighted.size(); ++b) {
    const nn::Layer* next = b + 1 < weighted.size() ? weighted[b + 1]
                                                    : nullptr;
    for (const auto& p : points) {
      const auto bank =
          arch::simulate_bank(*weighted[b], nullptr, next, net, at(cfg, p));
      cands[b].push_back(
          {bank.energy_per_sample, std::log1p(bank.epsilon_worst)});
      if (cands[b].back().objective < cands[b][choice[b]].objective)
        choice[b] = cands[b].size() - 1;
    }
  }
  auto total = [&] {
    double s = 0.0;
    for (std::size_t b = 0; b < weighted.size(); ++b)
      s += cands[b][choice[b]].log_error;
    return s;
  };
  while (total() > std::log1p(error_constraint)) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_b = weighted.size();
    std::size_t best_c = 0;
    for (std::size_t b = 0; b < weighted.size(); ++b) {
      const Cand& cur = cands[b][choice[b]];
      for (std::size_t c = 0; c < cands[b].size(); ++c) {
        const double reduction = cur.log_error - cands[b][c].log_error;
        if (!(reduction > 0)) continue;
        const double ratio = (cands[b][c].objective - cur.objective) /
                             reduction;
        if (ratio < best) {
          best = ratio;
          best_b = b;
          best_c = c;
        }
      }
    }
    if (best_b == weighted.size()) break;
    choice[best_b] = best_c;
  }
  std::vector<DesignPoint> chosen;
  for (std::size_t b = 0; b < weighted.size(); ++b)
    chosen.push_back(points[choice[b]]);
  return chosen;
}

TEST(Hetero, FaultCheckedSearchSolvesEachCircuitOnce) {
  // Candidates that differ only in a knob the clipped fault check does
  // not see share its circuit; the search's memo solves each once, and
  // the choices and report still equal a memo-free search bit for bit.
  auto net = nn::make_mlp({512, 256, 128});
  const auto cfg = fault_checked();
  const double constraint = 0.2;  // binding: the greedy repair moves

  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  long before = reg.counter("spice.solves");
  const auto result = optimize_per_bank(net, cfg, small_space(),
                                        Objective::kEnergy, constraint);
  const long solves = reg.counter("spice.solves") - before;
  before = reg.counter("spice.solves");
  const auto again = optimize_per_bank(net, cfg, small_space(),
                                       Objective::kEnergy, constraint);
  const long solves_again = reg.counter("spice.solves") - before;
  reg.set_enabled(was_enabled);

  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.report.solver.faults_injected, 0);
  ASSERT_EQ(result.bank_evaluations, 48);  // 2 banks x 24 points
  EXPECT_GT(solves, 0);
  EXPECT_LT(solves, result.bank_evaluations);
  EXPECT_EQ(solves_again, solves);

  const auto reference =
      memo_free_energy_choice(net, cfg, small_space(), constraint);
  ASSERT_EQ(result.per_bank.size(), reference.size());
  std::vector<arch::AcceleratorConfig> configs;
  for (std::size_t b = 0; b < reference.size(); ++b) {
    EXPECT_EQ(result.per_bank[b].crossbar_size, reference[b].crossbar_size);
    EXPECT_EQ(result.per_bank[b].parallelism, reference[b].parallelism);
    EXPECT_EQ(result.per_bank[b].interconnect_node,
              reference[b].interconnect_node);
    configs.push_back(at(cfg, reference[b]));
  }
  EXPECT_EQ(sim::report_to_json(net, result.report),
            sim::report_to_json(net, arch::simulate_accelerator(net, configs)));
  EXPECT_EQ(sim::report_to_json(net, again.report),
            sim::report_to_json(net, result.report));
}

TEST(Hetero, HeterogeneousSimulationValidatesConfigCount) {
  auto net = nn::make_mlp({64, 64, 64});  // 2 banks
  std::vector<arch::AcceleratorConfig> configs(3, base());
  EXPECT_THROW(arch::simulate_accelerator(net, configs),
               std::invalid_argument);
  EXPECT_THROW(
      arch::simulate_accelerator(net, std::vector<arch::AcceleratorConfig>{}),
      std::invalid_argument);
  configs.resize(2);
  configs[1].crossbar_size = 64;
  auto rep = arch::simulate_accelerator(net, configs);
  EXPECT_EQ(rep.banks.size(), 2u);
  // The two banks really used different crossbar sizes.
  EXPECT_NE(rep.banks[0].mapping.unit_count,
            rep.banks[1].mapping.unit_count);
}

}  // namespace
}  // namespace mnsim::dse
