#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include "arch/accelerator.hpp"
#include "dse/explorer.hpp"
#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"
#include "sim/json_report.hpp"
#include "spice/crossbar_netlist.hpp"
#include "util/json.hpp"

namespace mnsim::fault {
namespace {

tech::MemristorModel device() { return tech::default_rram(); }

// --- configuration validation ------------------------------------------------

TEST(FaultConfig, DefaultIsDisabled) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FaultConfig, RejectsBadRates) {
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stuck_at_zero_rate = 0.7;
  cfg.stuck_at_one_rate = 0.7;  // sum > 1
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FaultConfig{};
  cfg.broken_bitline_rate = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FaultConfig{};
  cfg.retention_time = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FaultConfig{};
  cfg.circuit_check_size = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- defect-map generation ---------------------------------------------------

TEST(DefectMap, DeterministicForSeed) {
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.05;
  cfg.stuck_at_one_rate = 0.02;
  cfg.broken_wordline_rate = 0.1;
  cfg.seed = 99;
  const auto a = generate_defect_map(32, 32, cfg, device());
  const auto b = generate_defect_map(32, 32, cfg, device());
  ASSERT_EQ(a.stuck_cells.size(), b.stuck_cells.size());
  for (std::size_t i = 0; i < a.stuck_cells.size(); ++i) {
    EXPECT_EQ(a.stuck_cells[i].row, b.stuck_cells[i].row);
    EXPECT_EQ(a.stuck_cells[i].col, b.stuck_cells[i].col);
    EXPECT_EQ(a.stuck_cells[i].kind, b.stuck_cells[i].kind);
  }
  EXPECT_EQ(a.broken_wordlines, b.broken_wordlines);
  EXPECT_EQ(a.seed, cfg.seed);
}

TEST(DefectMap, SeedOffsetDecorrelatesAndIsRecorded) {
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.2;
  cfg.seed = 5;
  const auto a = generate_defect_map(16, 16, cfg, device(), 0);
  const auto b = generate_defect_map(16, 16, cfg, device(), 1);
  EXPECT_EQ(a.seed, 5u);
  EXPECT_EQ(b.seed, 6u);
  // Different streams: the stuck-cell sets should differ for rate 0.2
  // over 256 cells (same sets would mean the offset is ignored).
  bool differs = a.stuck_cells.size() != b.stuck_cells.size();
  for (std::size_t i = 0; !differs && i < a.stuck_cells.size(); ++i)
    differs = a.stuck_cells[i].row != b.stuck_cells[i].row ||
              a.stuck_cells[i].col != b.stuck_cells[i].col;
  EXPECT_TRUE(differs);
}

TEST(DefectMap, FullRateSticksEveryCell) {
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 1.0;
  const auto map = generate_defect_map(4, 5, cfg, device());
  EXPECT_EQ(map.stuck_cells.size(), 20u);
  for (const auto& f : map.stuck_cells)
    EXPECT_EQ(f.kind, FaultKind::kStuckAtZero);
}

TEST(DefectMap, BrokenLinesExcludeStuckCells) {
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 1.0;
  cfg.broken_wordline_rate = 1.0;  // every row open
  const auto map = generate_defect_map(6, 6, cfg, device());
  EXPECT_EQ(map.broken_wordlines.size(), 6u);
  EXPECT_TRUE(map.stuck_cells.empty());
  EXPECT_EQ(map.fault_count(), 6);
}

TEST(DefectMap, RejectsBadShape) {
  FaultConfig cfg;
  EXPECT_THROW(generate_defect_map(0, 4, cfg, device()),
               std::invalid_argument);
}

// --- resistance-map application ----------------------------------------------

TEST(ApplyToResistanceMap, StuckCellsAndOpenLines) {
  const auto dev = device();
  DefectMap map;
  map.rows = 3;
  map.cols = 3;
  map.stuck_cells = {{0, 0, FaultKind::kStuckAtZero},
                     {1, 1, FaultKind::kStuckAtOne}};
  map.broken_wordlines = {2};
  std::vector<std::vector<double>> r(3, std::vector<double>(3, 5e3));

  apply_to_resistance_map(map, dev, r);
  EXPECT_DOUBLE_EQ(r[0][0], dev.r_max.value());  // SA0: lowest conductance
  EXPECT_DOUBLE_EQ(r[1][1], dev.r_min.value());  // SA1: highest conductance
  EXPECT_DOUBLE_EQ(r[0][1], 5e3);        // untouched
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(r[2][j], kOpenResistance);
}

TEST(ApplyToResistanceMap, DriftScalesCellsButNotOpens) {
  const auto dev = device();
  DefectMap map;
  map.rows = 2;
  map.cols = 2;
  map.drift_factor = 2.0;
  map.broken_bitlines = {1};
  std::vector<std::vector<double>> r(2, std::vector<double>(2, 1e4));

  apply_to_resistance_map(map, dev, r);
  EXPECT_DOUBLE_EQ(r[0][0], 2e4);
  EXPECT_DOUBLE_EQ(r[1][0], 2e4);
  // Open column stays exactly open — not drift-multiplied past 1e12.
  EXPECT_DOUBLE_EQ(r[0][1], kOpenResistance);
  EXPECT_DOUBLE_EQ(r[1][1], kOpenResistance);
}

TEST(ApplyToResistanceMap, ShapeMismatchThrows) {
  DefectMap map;
  map.rows = 2;
  map.cols = 2;
  std::vector<std::vector<double>> r(3, std::vector<double>(2, 1e4));
  EXPECT_THROW(apply_to_resistance_map(map, device(), r),
               std::invalid_argument);
}

TEST(DefectMap, RetentionTimeSetsDriftFactor) {
  FaultConfig cfg;
  cfg.retention_time = 3600.0;
  const auto map = generate_defect_map(4, 4, cfg, device());
  EXPECT_GT(map.drift_factor, 1.0);
  EXPECT_TRUE(cfg.enabled());
}

// --- signed-weight application (behavior level) -----------------------------

TEST(ApplyToSignedWeights, StuckAndBrokenSemantics) {
  // weights[out][in], maps [in][out]: 2 inputs x 2 outputs.
  nn::Matrix w = {{3.0, -2.0}, {1.0, 4.0}};
  DefectMap pos, neg;
  pos.rows = neg.rows = 2;  // inputs
  pos.cols = neg.cols = 2;  // outputs

  // SA0 on the positive cell of (in 0, out 0): w[0][0] loses its +3.
  pos.stuck_cells.push_back({0, 0, FaultKind::kStuckAtZero});
  // SA1 on the negative cell of (in 1, out 0): w[0][1] = -2 had wpos 0,
  // wneg 2; the negative cell pins to full scale.
  neg.stuck_cells.push_back({1, 0, FaultKind::kStuckAtOne});
  // Broken bitline on output 1 of the positive array: positive
  // contributions of w[1][*] vanish.
  pos.broken_bitlines = {1};

  apply_to_signed_weights(pos, neg, 8, w);
  const double wmax = 127.0;
  EXPECT_DOUBLE_EQ(w[0][0], 0.0);      // +3 stuck to 0, no negative part
  EXPECT_DOUBLE_EQ(w[0][1], -wmax);    // negative cell pinned full scale
  EXPECT_DOUBLE_EQ(w[1][0], 0.0);      // +1 killed by broken bitline
  EXPECT_DOUBLE_EQ(w[1][1], 0.0);      // +4 killed by broken bitline
}

// The per-cell stuck index must reproduce the original per-weight scan
// of the whole stuck list bit for bit, including its last-entry-wins
// rule for a cell listed twice.
void reference_apply(const DefectMap& positive, const DefectMap& negative,
                     int weight_bits, nn::Matrix& weights) {
  const double wmax = static_cast<double>((1 << (weight_bits - 1)) - 1);
  for (int o = 0; o < static_cast<int>(weights.size()); ++o) {
    for (int i = 0; i < static_cast<int>(weights[o].size()); ++i) {
      double wpos = std::max(weights[o][i], 0.0);
      double wneg = std::max(-weights[o][i], 0.0);
      auto stuck = [&](const DefectMap& map, double& w) {
        for (const auto& f : map.stuck_cells) {
          if (f.row != i || f.col != o) continue;
          w = f.kind == FaultKind::kStuckAtZero ? 0.0 : wmax;
        }
        if (map.row_broken(i) || map.col_broken(o)) w = 0.0;
      };
      stuck(positive, wpos);
      stuck(negative, wneg);
      wpos /= positive.drift_factor;
      wneg /= negative.drift_factor;
      weights[o][i] = wpos - wneg;
    }
  }
}

TEST(ApplyToSignedWeights, StuckIndexMatchesPerWeightScan) {
  const int inputs = 40;
  const int outputs = 12;
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.05;
  cfg.stuck_at_one_rate = 0.05;
  cfg.broken_wordline_rate = 0.05;
  cfg.broken_bitline_rate = 0.05;
  cfg.retention_time = 1e4;
  cfg.seed = 5;
  DefectMap pos = generate_defect_map(inputs, outputs, cfg, device(), 0);
  DefectMap neg = generate_defect_map(inputs, outputs, cfg, device(), 1);
  ASSERT_FALSE(pos.stuck_cells.empty());
  ASSERT_FALSE(neg.stuck_cells.empty());
  // Second entries for cells already listed, of the opposite kind, so
  // the winner depends on the order.
  for (DefectMap* map : {&pos, &neg}) {
    const auto listed = map->stuck_cells;
    for (std::size_t k = 0; k < listed.size(); k += 2) {
      CellFault again = listed[k];
      again.kind = again.kind == FaultKind::kStuckAtZero
                       ? FaultKind::kStuckAtOne
                       : FaultKind::kStuckAtZero;
      map->stuck_cells.push_back(again);
    }
  }

  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-127.0, 127.0);
  nn::Matrix w(outputs, std::vector<double>(inputs));
  for (auto& row : w)
    for (double& v : row) v = std::round(u(rng));
  nn::Matrix expected = w;
  reference_apply(pos, neg, 8, expected);
  apply_to_signed_weights(pos, neg, 8, w);
  for (int o = 0; o < outputs; ++o)
    for (int i = 0; i < inputs; ++i)
      EXPECT_EQ(std::memcmp(&w[o][i], &expected[o][i], sizeof(double)), 0)
          << "out " << o << " in " << i;
}

TEST(ApplyToSignedWeights, DriftShrinksMagnitudes) {
  nn::Matrix w = {{4.0, -4.0}};
  DefectMap pos, neg;
  pos.rows = neg.rows = 2;
  pos.cols = neg.cols = 1;
  pos.drift_factor = 2.0;
  neg.drift_factor = 2.0;
  apply_to_signed_weights(pos, neg, 8, w);
  EXPECT_DOUBLE_EQ(w[0][0], 2.0);
  EXPECT_DOUBLE_EQ(w[0][1], -2.0);
}

TEST(ApplyToSignedWeights, ShapeMismatchThrows) {
  nn::Matrix w = {{1.0, 2.0}};
  DefectMap pos, neg;
  pos.rows = neg.rows = 3;  // wrong: 2 inputs expected
  pos.cols = neg.cols = 1;
  EXPECT_THROW(apply_to_signed_weights(pos, neg, 8, w),
               std::invalid_argument);
}

// --- accuracy-chain composition ----------------------------------------------

accuracy::CrossbarErrorInputs error_inputs(int rows, int cols) {
  accuracy::CrossbarErrorInputs in;
  in.rows = rows;
  in.cols = cols;
  in.device = device();
  in.segment_resistance = units::Ohms{0.022};
  in.sense_resistance = units::Ohms{60.0};
  return in;
}

TEST(EstimateFaultError, NoFaultsMatchesBaseChain) {
  const auto in = error_inputs(16, 16);
  FaultConfig cfg;  // all rates zero
  const auto fe = estimate_fault_error(in, cfg);
  const auto eps = accuracy::estimate_voltage_error(in);
  EXPECT_EQ(fe.faults_injected, 0);
  EXPECT_DOUBLE_EQ(fe.fault_worst, 0.0);
  EXPECT_DOUBLE_EQ(fe.combined_worst, eps.worst);
  EXPECT_DOUBLE_EQ(fe.combined_average, eps.average);
}

TEST(EstimateFaultError, FaultsIncreaseTheBound) {
  const auto in = error_inputs(32, 32);
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.05;
  cfg.seed = 3;
  const auto fe = estimate_fault_error(in, cfg);
  const auto eps = accuracy::estimate_voltage_error(in);
  EXPECT_GT(fe.faults_injected, 0);
  EXPECT_GT(fe.fault_worst, 0.0);
  EXPECT_GT(fe.combined_worst, eps.worst);
  EXPECT_GE(fe.fault_worst, fe.fault_average);
}

// --- behavior vs circuit level on the same defect map ------------------------

TEST(CrossValidation, BrokenBitlineKillsColumnInBothModels) {
  const auto dev = device();
  const int n = 8;
  auto spec = spice::CrossbarSpec::uniform(n, n, dev, 0.022, 60.0,
                                           dev.r_min.value());

  DefectMap map;
  map.rows = n;
  map.cols = n;
  map.broken_bitlines = {3};
  apply_to_spec(map, spec);

  // Circuit level: the open column's sense output collapses to ~0 while
  // a healthy column keeps its full divider output.
  const auto sol = spice::solve_crossbar(spec);
  ASSERT_TRUE(sol.dc.converged);
  const double healthy = sol.column_output_voltage[0];
  const double broken = sol.column_output_voltage[3];
  EXPECT_GT(healthy, 1e-3);
  EXPECT_LT(broken, healthy * 1e-6);

  // Behavior level (star model through ideal_column_outputs on the same
  // faulted spec): identical verdict, so the two layers agree on the
  // defect's effect.
  const auto star = spice::ideal_column_outputs(spec);
  EXPECT_GT(star[0], 1e-3);
  EXPECT_LT(star[3], star[0] * 1e-6);

  // And quantitatively: circuit healthy column within a few percent of
  // the wire-free star value (wires only degrade it slightly at 8x8).
  EXPECT_NEAR(healthy, star[0], 0.05 * star[0]);
}

TEST(CrossValidation, StuckCellsShiftCircuitAndStarTogether) {
  const auto dev = device();
  const int n = 8;
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.15;
  cfg.seed = 11;
  const auto map = generate_defect_map(n, n, cfg, dev);
  ASSERT_GT(map.fault_count(), 0);

  auto clean = spice::CrossbarSpec::uniform(n, n, dev, 0.022, 60.0,
                                            dev.r_min.value());
  auto faulted = clean;
  apply_to_spec(map, faulted);

  const auto sol_clean = spice::solve_crossbar(clean);
  const auto sol_fault = spice::solve_crossbar(faulted);
  const auto star_clean = spice::ideal_column_outputs(clean);
  const auto star_fault = spice::ideal_column_outputs(faulted);

  // Per-column relative deviation measured circuit-level tracks the
  // star-model deviation on every column.
  for (int j = 0; j < n; ++j) {
    const double dev_circuit =
        (sol_clean.column_output_voltage[j] -
         sol_fault.column_output_voltage[j]) /
        sol_clean.column_output_voltage[j];
    const double dev_star =
        (star_clean[j] - star_fault[j]) / star_clean[j];
    EXPECT_NEAR(dev_circuit, dev_star, 0.02) << "column " << j;
  }
}

// --- graceful solver degradation ---------------------------------------------

TEST(SolverDegradation, IterationStarvedCgFallsBackToLu) {
  const auto dev = device();
  auto spec = spice::CrossbarSpec::uniform(8, 8, dev, 0.022, 60.0,
                                           dev.r_min.value());
  spice::DcOptions opt;
  opt.cg_max_iterations = 2;  // starve CG: it cannot converge in 2 steps
  opt.allow_cg_retry = false;
  opt.allow_dense_fallback = true;
  // The structured Schur rung would rescue this solve before CG ever
  // starves; disable it so the test still exercises the LU fallback.
  opt.allow_schur = false;

  const auto sol = spice::solve_crossbar(spec, opt);
  EXPECT_TRUE(sol.dc.converged);
  EXPECT_GT(sol.dc.diagnostics.lu_fallbacks, 0);
  EXPECT_TRUE(sol.dc.diagnostics.degraded());
  EXPECT_LT(sol.dc.diagnostics.linear_residual, 1e-6);

  // Same array with a generous budget: same answer, no degradation.
  const auto ref = spice::solve_crossbar(spec);
  EXPECT_EQ(ref.dc.diagnostics.lu_fallbacks, 0);
  for (int j = 0; j < 8; ++j)
    EXPECT_NEAR(sol.column_output_voltage[j],
                ref.column_output_voltage[j], 1e-8);
}

TEST(SolverDegradation, AllFallbacksDisabledThrows) {
  const auto dev = device();
  auto spec = spice::CrossbarSpec::uniform(8, 8, dev, 0.022, 60.0,
                                           dev.r_min.value());
  spice::DcOptions opt;
  opt.cg_max_iterations = 2;
  opt.allow_cg_retry = false;
  opt.allow_dense_fallback = false;
  opt.allow_schur = false;  // no rescue rung: the ladder must exhaust
  EXPECT_THROW(spice::solve_crossbar(spec, opt), std::runtime_error);
}

TEST(SolverDegradation, FaultedCrossbarStillSolves) {
  // Broken lines put 1e12-ohm opens next to r_min cells — the
  // conductance spread that used to stall CG outright. The ladder must
  // deliver a converged solve regardless of which rung wins.
  const auto dev = device();
  FaultConfig cfg;
  cfg.broken_wordline_rate = 0.2;
  cfg.broken_bitline_rate = 0.2;
  cfg.stuck_at_one_rate = 0.1;
  cfg.seed = 17;
  auto spec = spice::CrossbarSpec::uniform(16, 16, dev, 0.022, 60.0,
                                           dev.r_min.value());
  const auto map = generate_defect_map(16, 16, cfg, dev);
  apply_to_spec(map, spec);

  const auto sol = spice::solve_crossbar(spec);
  EXPECT_TRUE(sol.dc.converged);
  for (double v : sol.column_output_voltage) EXPECT_TRUE(std::isfinite(v));
}

// --- functional-sim hook -----------------------------------------------------

TEST(FunctionalSim, StuckAtZeroInjectionDegradesAccuracy) {
  const auto net = nn::make_mlp({32, 24, 10});
  const std::vector<double> eps(2, 0.0);  // isolate the fault effect
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 4;
  mc.seed = 7;

  FaultConfig none;
  const auto clean = nn::run_monte_carlo_network(net, eps, mc, none);
  EXPECT_EQ(clean.faults_injected, 0);
  EXPECT_NEAR(clean.relative_accuracy, 1.0, 1e-12);
  EXPECT_EQ(clean.seed, mc.seed);

  FaultConfig one_percent;
  one_percent.stuck_at_zero_rate = 0.01;
  one_percent.seed = 13;
  const auto faulted =
      nn::run_monte_carlo_network(net, eps, mc, one_percent);
  EXPECT_GT(faulted.faults_injected, 0);
  // A 1% SA0 population must measurably move the output.
  EXPECT_LT(faulted.relative_accuracy, clean.relative_accuracy - 1e-4);
  EXPECT_GT(faulted.max_error_rate, 0.0);
}

TEST(FunctionalSim, FaultRunIsSeedReproducible) {
  const auto net = nn::make_mlp({16, 8});
  const std::vector<double> eps(1, 0.01);
  nn::MonteCarloConfig mc;
  mc.samples = 10;
  mc.weight_draws = 2;
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.05;
  cfg.seed = 21;
  const auto a = nn::run_monte_carlo_network(net, eps, mc, cfg);
  const auto b = nn::run_monte_carlo_network(net, eps, mc, cfg);
  EXPECT_DOUBLE_EQ(a.relative_accuracy, b.relative_accuracy);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// The functional MC draws its defect maps for the design's device, so a
// PCM design with retention drifts as PCM, as the arch flow's
// estimate_fault_error does.
TEST(FunctionalSim, DefectMapsUseTheDesignDevice) {
  const auto net = nn::make_mlp({16, 12, 8});
  FaultConfig cfg;
  cfg.stuck_at_zero_rate = 0.02;
  cfg.retention_time = 1e6;
  cfg.seed = 9;
  const auto pcm = tech::default_pcm();
  // Weighted layer w's maps are drawn with seed offsets 2w and 2w + 1;
  // PCM drifts far more than the RRAM default over the same time.
  int expected_faults = 0;
  std::uint32_t w = 0;
  for (const auto& layer : net.layers) {
    if (!layer.is_weighted()) continue;
    const int rows = static_cast<int>(layer.matrix_rows());
    const int cols = static_cast<int>(layer.matrix_cols());
    for (const std::uint32_t offset : {2 * w, 2 * w + 1}) {
      const DefectMap map = generate_defect_map(rows, cols, cfg, pcm, offset);
      expected_faults += map.fault_count();
      EXPECT_GT(map.drift_factor,
                generate_defect_map(rows, cols, cfg, device(), offset)
                        .drift_factor +
                    1.0);
    }
    ++w;
  }
  ASSERT_EQ(w, 2u);

  // The device reaches the MC: PCM drift moves the result, and the
  // default device is the RRAM model.
  const std::vector<double> eps(2, 0.0);
  nn::MonteCarloConfig mc;
  mc.samples = 10;
  mc.weight_draws = 2;
  const auto as_pcm = nn::run_monte_carlo_network(net, eps, mc, cfg, pcm);
  const auto as_rram = nn::run_monte_carlo_network(net, eps, mc, cfg);
  const auto explicit_rram =
      nn::run_monte_carlo_network(net, eps, mc, cfg, device());
  EXPECT_NE(as_pcm.relative_accuracy, as_rram.relative_accuracy);
  EXPECT_EQ(as_rram.relative_accuracy, explicit_rram.relative_accuracy);
  EXPECT_EQ(as_pcm.faults_injected, expected_faults);
  EXPECT_EQ(as_pcm.faults_injected, as_rram.faults_injected);
}

// --- architecture flow + report ----------------------------------------------

arch::AcceleratorConfig arch_config() {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  return c;
}

TEST(ArchFlow, FaultInjectionRaisesReportedError) {
  const auto net = nn::make_mlp({64, 32});
  auto base = arch_config();
  const auto clean = arch::simulate_accelerator(net, base);

  auto faulty = base;
  faulty.fault.stuck_at_zero_rate = 0.02;
  faulty.fault.seed = 4;
  const auto rep = arch::simulate_accelerator(net, faulty);
  EXPECT_GT(rep.solver.faults_injected, 0);
  EXPECT_GT(rep.max_error_rate, clean.max_error_rate);
  EXPECT_TRUE(rep.fault_config.enabled());
}

TEST(ArchFlow, CircuitCheckRecordsSolverDiagnostics) {
  const auto net = nn::make_mlp({48, 16});
  auto cfg = arch_config();
  cfg.fault.broken_bitline_rate = 0.1;
  cfg.fault.stuck_at_one_rate = 0.05;
  cfg.fault.circuit_check = true;
  cfg.fault.circuit_check_size = 16;
  // Starve the CG budget so the validation solve must take the ladder;
  // the structured rung would otherwise absorb the starvation.
  cfg.solver_cg_max_iterations = 2;
  cfg.solver_structured = false;

  const auto rep = arch::simulate_accelerator(net, cfg);
  EXPECT_GT(rep.solver.newton_iterations, 0);
  EXPECT_GT(rep.solver.lu_fallbacks + rep.solver.cg_retries, 0);
  EXPECT_TRUE(rep.solver.degraded());

  // The JSON report must carry the full diagnostics + fault blocks.
  const auto json = sim::report_to_json(net, rep);
  const auto values = util::parse_json_numbers(json);
  EXPECT_GT(values.at("solver_diagnostics.lu_fallbacks") +
                values.at("solver_diagnostics.cg_retries"),
            0.0);
  EXPECT_EQ(values.at("solver_diagnostics.degraded"), 1.0);
  EXPECT_EQ(values.at("fault_model.enabled"), 1.0);
  EXPECT_EQ(values.at("fault_model.seed"),
            static_cast<double>(cfg.fault.seed));
  EXPECT_GT(values.at("solver_diagnostics.faults_injected"), 0.0);
}

TEST(ArchFlow, ConfigFileRoundTrip) {
  const auto cfg = arch::AcceleratorConfig::from_config(util::Config::parse(
      "[fault]\n"
      "Stuck_At_0_Rate = 0.01\n"
      "Bitline_Defect_Rate = 0.05\n"
      "Seed = 77\n"
      "Circuit_Check = true\n"
      "Circuit_Check_Size = 16\n"
      "[solver]\n"
      "CG_Tolerance = 1e-10\n"
      "CG_Max_Iterations = 50\n"
      "Allow_Fallback = yes\n"));
  EXPECT_DOUBLE_EQ(cfg.fault.stuck_at_zero_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.fault.broken_bitline_rate, 0.05);
  EXPECT_EQ(cfg.fault.seed, 77u);
  EXPECT_TRUE(cfg.fault.circuit_check);
  const auto opt = cfg.solver_options();
  EXPECT_DOUBLE_EQ(opt.cg_tolerance, 1e-10);
  EXPECT_EQ(opt.cg_max_iterations, 50u);
  EXPECT_TRUE(opt.allow_dense_fallback);
}

// --- DSE under faults --------------------------------------------------------

TEST(DseFlow, SweepCompletesWithFaultsAndStarvedSolver) {
  // The regression this subsystem exists for: a sweep whose every point
  // runs a defect-injected circuit check on a starved CG budget used to
  // die with "conjugate gradient stalled"; now each solve degrades to
  // the LU rung and the sweep finishes with diagnostics on record.
  const auto net = nn::make_mlp({64, 32});
  auto base = arch_config();
  base.fault.broken_bitline_rate = 0.1;
  base.fault.circuit_check = true;
  base.fault.circuit_check_size = 12;
  base.solver_cg_max_iterations = 2;
  base.solver_structured = false;  // keep the starved solves on the ladder

  dse::DesignSpace space;
  space.crossbar_sizes = {32, 64};
  space.parallelism_degrees = {1};
  space.interconnect_nodes = {45};

  const auto result = dse::explore(net, base, space, 0.9);
  EXPECT_EQ(result.designs.size(), space.enumerate().size());
  EXPECT_EQ(result.failed_count, 0);
  for (const auto& d : result.designs) {
    EXPECT_TRUE(d.evaluated);
    EXPECT_GT(d.metrics.solver_fallbacks, 0);
    EXPECT_GT(d.metrics.faults_injected, 0);
  }
}

TEST(DseFlow, ThrowingPointIsRecordedNotFatal) {
  // Force a per-point failure (fallback disabled + starved budget) and
  // check the sweep reports it instead of aborting.
  const auto net = nn::make_mlp({64, 32});
  auto base = arch_config();
  base.fault.broken_bitline_rate = 0.1;
  base.fault.circuit_check = true;
  base.fault.circuit_check_size = 12;
  base.solver_cg_max_iterations = 2;
  base.solver_allow_fallback = false;
  base.solver_structured = false;  // the rescue rung would mask the failure

  dse::DesignSpace space;
  space.crossbar_sizes = {32};
  space.parallelism_degrees = {1};
  space.interconnect_nodes = {45};

  const auto result = dse::explore(net, base, space, 0.9);
  ASSERT_EQ(result.designs.size(), 1u);
  EXPECT_EQ(result.failed_count, 1);
  EXPECT_FALSE(result.designs[0].evaluated);
  EXPECT_FALSE(result.designs[0].feasible);
  EXPECT_FALSE(result.designs[0].failure.empty());
  // Every point of this one-point space failed: the exploration says so
  // with a typed diagnostic instead of throwing.
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, "MN-DSE-006");
}

}  // namespace
}  // namespace mnsim::fault
