// Determinism contract of the parallel sweep engines (util/parallel.hpp):
// for every engine, running with threads = 1 and threads = 8 must produce
// bit-identical results — same samples, same aggregates, same formatted
// reports — because each task draws from its own (seed, index)-derived
// RNG stream and reductions happen in index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "accuracy/variation.hpp"
#include "dse/checkpoint.hpp"
#include "dse/report.hpp"
#include "dse/shard.hpp"
#include "nn/functional_sim.hpp"
#include "nn/parser.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/mna.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"

namespace mnsim {
namespace {

// --- DSE exploration -----------------------------------------------------

arch::AcceleratorConfig dse_base(int threads) {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.parallel_threads = threads;
  return c;
}

dse::DesignSpace small_space() {
  dse::DesignSpace s;
  s.crossbar_sizes = {64, 128, 256};
  s.parallelism_degrees = {1, 16, 0};
  s.interconnect_nodes = {28, 45};
  return s;
}

void expect_identical(const dse::ExplorationResult& a,
                      const dse::ExplorationResult& b) {
  EXPECT_EQ(a.feasible_count, b.feasible_count);
  EXPECT_EQ(a.failed_count, b.failed_count);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    const auto& da = a.designs[i];
    const auto& db = b.designs[i];
    EXPECT_EQ(da.point.crossbar_size, db.point.crossbar_size);
    EXPECT_EQ(da.point.parallelism, db.point.parallelism);
    EXPECT_EQ(da.point.interconnect_node, db.point.interconnect_node);
    EXPECT_EQ(da.feasible, db.feasible);
    EXPECT_EQ(da.evaluated, db.evaluated);
    EXPECT_EQ(da.failure, db.failure);
    EXPECT_DOUBLE_EQ(da.metrics.area, db.metrics.area);
    EXPECT_DOUBLE_EQ(da.metrics.energy_per_sample,
                     db.metrics.energy_per_sample);
    EXPECT_DOUBLE_EQ(da.metrics.latency, db.metrics.latency);
    EXPECT_DOUBLE_EQ(da.metrics.sample_latency, db.metrics.sample_latency);
    EXPECT_DOUBLE_EQ(da.metrics.power, db.metrics.power);
    EXPECT_DOUBLE_EQ(da.metrics.max_error_rate, db.metrics.max_error_rate);
    EXPECT_DOUBLE_EQ(da.metrics.avg_error_rate, db.metrics.avg_error_rate);
    EXPECT_EQ(da.metrics.solver_fallbacks, db.metrics.solver_fallbacks);
    EXPECT_EQ(da.metrics.faults_injected, db.metrics.faults_injected);
    EXPECT_DOUBLE_EQ(da.metrics.stall_fraction, db.metrics.stall_fraction);
    EXPECT_DOUBLE_EQ(da.metrics.backing_traffic,
                     db.metrics.backing_traffic);
  }
}

TEST(ParallelDeterminism, DseSweepMatchesSerial) {
  const auto net = nn::make_large_bank_layer();
  const auto serial = explore(net, dse_base(1), small_space(), 0.25);
  const auto parallel = explore(net, dse_base(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  // The formatted report is a pure function of the result: byte-identical.
  EXPECT_EQ(dse::format_optima_table(serial, "t"),
            dse::format_optima_table(parallel, "t"));
}

TEST(ParallelDeterminism, DseSweepWithCycleModeMatchesSerial) {
  // Cycle-mode points additionally run the integer-cycle dataflow engine
  // inside each parallel task; its schedule is a pure integer function of
  // the design point, so the stall/traffic metrics must be bit-identical
  // at any thread count (the sharded-merge contract). A conv network so
  // banks run many tiles — a single-tile bank can never stall (tile 0's
  // wait is ramp-up idle by definition).
  nn::Network net;
  net.name = "cycle-det-conv";
  net.input_bits = 8;
  net.weight_bits = 4;
  net.layers.push_back(
      nn::Layer::convolution("conv1", 3, 8, 3, 16, 16, /*padding=*/1));
  net.layers.push_back(
      nn::Layer::convolution("conv2", 8, 8, 3, 16, 16, /*padding=*/1));
  auto make = [](int threads) {
    auto c = dse_base(threads);
    c.cycle_enabled = true;
    c.cycle_bandwidth_gbps = 1e-3;  // starved: fills outlast compute
    return c;
  };
  const auto serial = explore(net, make(1), small_space(), 0.25);
  const auto parallel = explore(net, make(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  bool any_stalls = false;
  for (const auto& d : serial.designs)
    if (d.metrics.stall_fraction > 0) any_stalls = true;
  EXPECT_TRUE(any_stalls);  // the cycle engine actually ran and starved
}

TEST(ParallelDeterminism, DseSweepWithFaultInjectionMatchesSerial) {
  // The PR-1 fault-injected path: every design point runs a
  // defect-injected circuit-level solve inside the parallel task.
  const auto net = nn::make_large_bank_layer();
  auto make = [](int threads) {
    auto c = dse_base(threads);
    c.fault.stuck_at_zero_rate = 0.01;
    c.fault.stuck_at_one_rate = 0.005;
    c.fault.broken_wordline_rate = 0.01;
    c.fault.circuit_check = true;
    c.fault.circuit_check_size = 16;
    return c;
  };
  const auto serial = explore(net, make(1), small_space(), 0.25);
  const auto parallel = explore(net, make(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  bool any_faults = false;
  for (const auto& d : serial.designs)
    if (d.metrics.faults_injected > 0) any_faults = true;
  EXPECT_TRUE(any_faults);  // the faulted path actually ran
}

// --- sweep circuit memo ----------------------------------------------------
//
// run_sweep serves every bank's fault estimate and circuit check from one
// CircuitCheckMemo per sweep. The memo must be invisible in the records:
// every point equals a memo-free evaluate_design of the same point, bit
// for bit, at any thread count and fault seed.

// LeNet under the reference accelerator with the per-bank fault circuit
// check on (ci_sweep.ini's [fault] section): 330 points, 75 of them
// refused by MN-CFG-004 (Circuit_Check_Size above the 4x4/8x8 crossbars).
nn::Network lenet() {
  return nn::parse_network(util::Config::parse(R"(
[network]
name = lenet5
type = CNN
input_bits = 8
weight_bits = 8
[layer1]
kind = conv
in_channels = 1
out_channels = 6
kernel = 5
in_width = 32
in_height = 32
[layer2]
kind = pool
window = 2
[layer3]
kind = conv
in_channels = 6
out_channels = 16
kernel = 5
in_width = 14
in_height = 14
[layer4]
kind = pool
window = 2
[layer5]
kind = fc
in = 400
out = 120
[layer6]
kind = fc
in = 120
out = 84
[layer7]
kind = fc
in = 84
out = 10
)"));
}

arch::AcceleratorConfig fault_check_config(std::uint32_t seed, int threads) {
  auto cfg = arch::AcceleratorConfig::from_config(util::Config::parse(R"(
Interface_Number = [128, 128]
Crossbar_Size = 128
Pooling_Size = 2
Weight_Polarity = 2
CMOS_Tech = 45
Cell_Type = 1T1R
Memristor_Model = RRAM
Interconnect_Tech = 45
Parallelism_Degree = 0
Resistance_Range = [500, 500e3]
Output_Bits = 8
[fault]
Stuck_At_0_Rate = 0.001
Circuit_Check = true
Circuit_Check_Size = 32
)"));
  cfg.fault.seed = seed;
  cfg.parallel_threads = threads;
  return cfg;
}

// Broken lines and retention drift on top: open cells and drift-scaled
// states enter both memo keys.
arch::AcceleratorConfig broken_line_config(int threads) {
  auto cfg = fault_check_config(1, threads);
  cfg.fault.broken_wordline_rate = 0.05;
  cfg.fault.broken_bitline_rate = 0.05;
  cfg.fault.retention_time = 1e6;
  return cfg;
}

// A memo-free evaluate_design of one point: the design, or the failure
// text a sweep records for it.
struct ReferencePoint {
  bool evaluated = false;
  dse::EvaluatedDesign design;
  std::string failure;
};

struct MemoFreeReference {
  std::vector<ReferencePoint> points;
  long faults_injected = 0;  // summed over the evaluated points
};

// Memo-free evaluation of every point of paper_default(). Points are
// independent, so the reference runs on a pool; each evaluation still
// solves its own circuits with no memo.
MemoFreeReference memo_free_reference(const nn::Network& net,
                                      const arch::AcceleratorConfig& cfg) {
  const auto points = dse::DesignSpace::paper_default().enumerate();
  MemoFreeReference ref;
  ref.points = util::parallel_map(
      4, points.size(), [&](std::size_t i, std::size_t) {
        ReferencePoint p;
        try {
          p.design = dse::evaluate_design(net, cfg, points[i],
                                          dse::Constraints{});
          p.evaluated = true;
        } catch (const std::exception& e) {
          p.failure = e.what();
        }
        return p;
      });
  for (const ReferencePoint& p : ref.points)
    if (p.evaluated) ref.faults_injected += p.design.metrics.faults_injected;
  return ref;
}

// The seed-1 reference is shared by the two memo tests below.
const MemoFreeReference& seed1_reference() {
  static const MemoFreeReference ref =
      memo_free_reference(lenet(), fault_check_config(1, 1));
  return ref;
}

dse::SweepResult fault_check_sweep(const arch::AcceleratorConfig& cfg) {
  return dse::run_sweep(lenet(), cfg, dse::DesignSpace::paper_default(),
                        dse::SweepOptions{});
}

void expect_matches_reference(const dse::SweepResult& sweep,
                              const MemoFreeReference& ref) {
  ASSERT_EQ(sweep.records.size(), ref.points.size());
  long evaluated = 0;
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const dse::CheckpointRecord& swept = sweep.records[i];
    const ReferencePoint& expect = ref.points[i];
    ASSERT_EQ(swept.index, i);
    if (expect.evaluated) {
      ++evaluated;
      dse::CheckpointRecord again = swept;
      again.design = expect.design;
      EXPECT_EQ(dse::encode_checkpoint_record(swept),
                dse::encode_checkpoint_record(again))
          << "point " << i;
    } else {
      EXPECT_FALSE(swept.design.evaluated) << "point " << i;
      EXPECT_EQ(swept.design.failure, expect.failure) << "point " << i;
    }
  }
  EXPECT_EQ(evaluated, 255);
  EXPECT_GT(ref.faults_injected, 0);
}

TEST(ParallelDeterminism, SweepCircuitMemoMatchesMemoFreeEvaluation) {
  const nn::Network net = lenet();
  for (const std::uint32_t seed : {1u, 7u}) {
    const MemoFreeReference ref =
        seed == 1 ? seed1_reference()
                  : memo_free_reference(net, fault_check_config(seed, 1));
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                   std::to_string(threads));
      expect_matches_reference(
          fault_check_sweep(fault_check_config(seed, threads)), ref);
    }
  }
  SCOPED_TRACE("broken lines + retention");
  expect_matches_reference(
      fault_check_sweep(broken_line_config(4)),
      memo_free_reference(net, broken_line_config(1)));
}

TEST(ParallelDeterminism, SweepCircuitMemoSolvesEachCircuitOnce) {
  // Compute-once makes the solver work a function of the distinct
  // circuits alone: one cold solve, and so one pre-flight, per distinct
  // circuit, whatever the thread count.
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const MemoFreeReference& ref = seed1_reference();
  std::map<std::string, long> first;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::vector<std::string> names = {
        "spice.solves", "spice.preflights", "dse.sweep.distinct_circuits",
        "dse.sweep.distinct_fault_inputs", "fault.faults_injected"};
    std::map<std::string, long> before;
    for (const auto& n : names) before[n] = reg.counter(n);
    fault_check_sweep(fault_check_config(1, threads));
    std::map<std::string, long> delta;
    for (const auto& n : names) delta[n] = reg.counter(n) - before[n];

    const long circuits = delta["dse.sweep.distinct_circuits"];
    EXPECT_GT(circuits, 0);
    EXPECT_LT(circuits, 255);  // far fewer than one per evaluated point
    EXPECT_EQ(delta["spice.solves"], circuits);
    EXPECT_EQ(delta["spice.preflights"], circuits);
    EXPECT_GT(delta["dse.sweep.distinct_fault_inputs"], 0);
    EXPECT_EQ(delta["fault.faults_injected"], ref.faults_injected);
    if (first.empty())
      first = delta;
    else
      EXPECT_EQ(delta, first);
  }
  reg.set_enabled(was_enabled);
}

// --- variation Monte-Carlo ------------------------------------------------

TEST(ParallelDeterminism, VariationMcMatchesSerial) {
  accuracy::CrossbarErrorInputs in;
  in.rows = 12;
  in.cols = 12;
  in.device = tech::default_rram();
  in.device.sigma = 0.2;
  in.segment_resistance = mnsim::units::Ohms{0.022};
  in.sense_resistance = mnsim::units::Ohms{60.0};

  accuracy::VariationMcOptions opt;
  opt.trials = 20;
  opt.threads = 1;
  const auto serial = accuracy::variation_monte_carlo(in, opt);
  opt.threads = 8;
  const auto parallel = accuracy::variation_monte_carlo(in, opt);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.samples[i], parallel.samples[i]);
  EXPECT_DOUBLE_EQ(serial.mean_error, parallel.mean_error);
  EXPECT_DOUBLE_EQ(serial.max_error, parallel.max_error);
  // Counters are schedule-independent too: every trial refills the
  // primed pattern and warm-starts from the base operating point.
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
  EXPECT_EQ(serial.warm_starts, parallel.warm_starts);
  EXPECT_GE(serial.warm_starts, static_cast<long>(serial.samples.size()));
  EXPECT_GT(serial.cache_hits, 0);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 8);
}

// --- functional Monte-Carlo -----------------------------------------------

void expect_identical(const nn::MonteCarloResult& a,
                      const nn::MonteCarloResult& b) {
  EXPECT_DOUBLE_EQ(a.relative_accuracy, b.relative_accuracy);
  EXPECT_DOUBLE_EQ(a.max_error_rate, b.max_error_rate);
  EXPECT_DOUBLE_EQ(a.avg_error_rate, b.avg_error_rate);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

TEST(ParallelDeterminism, FunctionalMcMatchesSerial) {
  nn::Network net = nn::make_mlp({16, 12, 8});
  const std::vector<double> eps{0.01, 0.02};
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 12;
  mc.threads = 1;
  const auto serial = run_monte_carlo_network(net, eps, mc);
  mc.threads = 8;
  const auto parallel = run_monte_carlo_network(net, eps, mc);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 8);
}

TEST(ParallelDeterminism, FunctionalMcFaultedMatchesSerial) {
  nn::Network net = nn::make_mlp({16, 12, 8});
  const std::vector<double> eps{0.01, 0.02};
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.02;
  faults.stuck_at_one_rate = 0.01;
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 12;
  mc.threads = 1;
  const auto serial = run_monte_carlo_network(net, eps, mc, faults);
  mc.threads = 8;
  const auto parallel = run_monte_carlo_network(net, eps, mc, faults);
  expect_identical(serial, parallel);
  EXPECT_GT(serial.faults_injected, 0);  // the defect maps actually bit
}

// --- batched DC solves -----------------------------------------------------
//
// solve_dc_batch's contract: bit-identical to N independent solve_dc
// calls, at any thread count, for both batch shapes — the factor-once
// shared-matrix path (linear cells, only sources vary) and the general
// per-entry-matrix path (nonlinear cells, per-entry conductance maps).

void expect_bitwise_equal(const spice::DcResult& a, const spice::DcResult& b,
                          std::size_t entry) {
  ASSERT_EQ(a.node_voltages.size(), b.node_voltages.size());
  for (std::size_t n = 0; n < a.node_voltages.size(); ++n)
    ASSERT_EQ(a.node_voltages[n], b.node_voltages[n])
        << "entry " << entry << " node " << n;
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
}

TEST(ParallelDeterminism, DcBatchSharedMatrixMatchesIndependentSolves) {
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(10, 8, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.linear_memristors = true;
  const spice::Netlist base = spice::build_crossbar_netlist(spec, nullptr);

  // Only source voltages vary: every entry shares one conductance
  // matrix, so the batch engine factors the Schur system once.
  std::vector<spice::DcBatchEntry> entries(9);
  for (std::size_t k = 0; k < entries.size(); ++k)
    entries[k].source_voltages.assign(
        10, device.v_read.value() * (0.3 + 0.07 * static_cast<double>(k)));

  std::vector<spice::DcResult> reference;
  for (const auto& e : entries) {
    spice::Netlist nl = base;
    for (std::size_t s = 0; s < e.source_voltages.size(); ++s)
      nl.set_source_voltage(s, e.source_voltages[s]);
    reference.push_back(spice::solve_dc(nl));
  }

  std::vector<std::vector<spice::DcResult>> runs;
  for (int threads : {1, 4, 8}) {
    spice::DcBatchOptions opt;
    opt.threads = threads;
    runs.push_back(spice::solve_dc_batch(base, entries, opt));
  }
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), reference.size());
    for (std::size_t k = 0; k < run.size(); ++k)
      expect_bitwise_equal(run[k], reference[k], k);
  }
  // The factor-once fast path actually engaged, identically per entry
  // at every thread count (the decision is static, never per-worker).
  for (const auto& run : runs)
    for (std::size_t k = 0; k < run.size(); ++k) {
      EXPECT_EQ(run[k].diagnostics.factor_reuses, 1) << "entry " << k;
      EXPECT_EQ(run[k].diagnostics.schur_solves, 1) << "entry " << k;
      EXPECT_EQ(run[k].diagnostics.cache_hits,
                runs[0][k].diagnostics.cache_hits);
      EXPECT_EQ(run[k].diagnostics.schur_iterations,
                runs[0][k].diagnostics.schur_iterations);
    }
}

TEST(ParallelDeterminism, DcBatchPerEntryMatricesMatchIndependentSolves) {
  const auto device = tech::default_rram();
  const auto spec = spice::CrossbarSpec::uniform(8, 8, device, 0.022, 60.0,
                                                 device.r_min.value());
  const spice::Netlist base = spice::build_crossbar_netlist(spec, nullptr);
  const std::size_t cells = base.memristors().size();

  // Per-entry conductance maps on the nonlinear device: every entry
  // assembles (and Schur-factors) its own matrices per Newton iterate.
  std::vector<spice::DcBatchEntry> entries(7);
  for (std::size_t k = 0; k < entries.size(); ++k) {
    entries[k].memristor_states.resize(cells);
    for (std::size_t c = 0; c < cells; ++c)
      entries[k].memristor_states[c] =
          device.r_min.value() *
          (1.0 + 0.03 * static_cast<double>((k + c) % 11));
  }

  std::vector<spice::DcResult> reference;
  for (const auto& e : entries) {
    spice::Netlist nl = base;
    for (std::size_t c = 0; c < cells; ++c)
      nl.set_memristor_state(c, e.memristor_states[c]);
    reference.push_back(spice::solve_dc(nl));
  }

  for (int threads : {1, 4, 8}) {
    spice::DcBatchOptions opt;
    opt.threads = threads;
    const auto batch = spice::solve_dc_batch(base, entries, opt);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_bitwise_equal(batch[k], reference[k], k);
      // No shared matrix, so no factor reuse — but the structured rung
      // still serves every Newton iterate.
      EXPECT_EQ(batch[k].diagnostics.factor_reuses, 0);
      EXPECT_GT(batch[k].diagnostics.schur_solves, 0);
    }
  }
}

TEST(ParallelDeterminism, CrossbarBatchMatchesScalarSolves) {
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(8, 6, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.linear_memristors = true;

  std::vector<spice::CrossbarBatchEntry> entries(5);
  for (std::size_t k = 0; k < entries.size(); ++k)
    entries[k].input_voltages.assign(
        8, device.v_read.value() * (0.4 + 0.1 * static_cast<double>(k)));

  for (int threads : {1, 4}) {
    const auto batch =
        spice::solve_crossbar_batch(spec, entries, {}, threads);
    ASSERT_EQ(batch.size(), entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
      auto scalar_spec = spec;
      scalar_spec.input_voltages = entries[k].input_voltages;
      const auto scalar = spice::solve_crossbar(scalar_spec);
      ASSERT_EQ(batch[k].column_output_voltage.size(),
                scalar.column_output_voltage.size());
      for (std::size_t j = 0; j < scalar.column_output_voltage.size(); ++j)
        EXPECT_EQ(batch[k].column_output_voltage[j],
                  scalar.column_output_voltage[j])
            << "entry " << k << " column " << j;
      EXPECT_EQ(batch[k].total_power, scalar.total_power);
    }
  }
}

}  // namespace
}  // namespace mnsim
