#include "dse/sensitivity.hpp"

#include <gtest/gtest.h>

#include "nn/topologies.hpp"
#include "obs/metrics.hpp"

namespace mnsim::dse {
namespace {

arch::AcceleratorConfig base() {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  return c;
}

TEST(Sensitivity, ProbesAllKnobsAroundInteriorPoint) {
  auto net = nn::make_large_bank_layer();
  DesignPoint p{128, 16, 28};
  auto rep = analyze_sensitivity(net, base(), p);
  EXPECT_EQ(rep.base_point.crossbar_size, 128);
  // Interior point: both directions of all three knobs -> 6 entries.
  EXPECT_EQ(rep.entries.size(), 6u);
}

TEST(Sensitivity, DirectionsMatchTheModels) {
  auto net = nn::make_large_bank_layer();
  DesignPoint p{128, 16, 28};
  auto rep = analyze_sensitivity(net, base(), p);
  for (const auto& e : rep.entries) {
    if (e.knob == "crossbar_size/2") {
      EXPECT_GT(e.d_area, 0.0);   // smaller crossbars cost area
      EXPECT_LT(e.d_error, 0.0);  // but reduce the wire error
    } else if (e.knob == "parallelism/2") {
      EXPECT_LT(e.d_area, 0.0);   // fewer ADCs
      EXPECT_GT(e.d_latency, 0.0);  // more read cycles
    } else if (e.knob == "parallelism*2") {
      EXPECT_GT(e.d_area, 0.0);
      EXPECT_LT(e.d_latency, 0.0);
    } else if (e.knob == "interconnect_finer") {
      EXPECT_GT(e.d_error, 0.0);  // finer wires are more resistive
    } else if (e.knob == "interconnect_coarser") {
      EXPECT_LT(e.d_error, 0.0);
    }
  }
}

TEST(Sensitivity, BoundaryPointsSkipInvalidNeighbours) {
  auto net = nn::make_mlp({64, 64});
  // Full parallel: no parallelism*2 step; finest node: no finer step.
  DesignPoint p{4, 0, 18};
  auto rep = analyze_sensitivity(net, base(), p);
  for (const auto& e : rep.entries) {
    EXPECT_NE(e.knob, "crossbar_size/2");  // 4 is the floor
    EXPECT_NE(e.knob, "parallelism*2");
    EXPECT_NE(e.knob, "interconnect_finer");
  }
  EXPECT_FALSE(rep.entries.empty());
}

TEST(Sensitivity, BaseMetricsPopulated) {
  auto net = nn::make_mlp({256, 256});
  auto rep = analyze_sensitivity(net, base(), {128, 0, 45});
  EXPECT_GT(rep.base_metrics.area, 0.0);
  EXPECT_GT(rep.base_metrics.latency, 0.0);
  EXPECT_GE(rep.base_metrics.max_error_rate, 0.0);
}

TEST(Sensitivity, FaultCheckedNeighboursMatchMemoFreeEvaluation) {
  // With the fault circuit check on, the base point and its neighbours
  // share their clipped check circuits; the analysis solves each once
  // through its memo, and every reported number must still equal a
  // memo-free evaluation bit for bit.
  auto net = nn::make_mlp({256, 128, 64});
  auto cfg = base();
  cfg.fault.stuck_at_zero_rate = 0.01;
  cfg.fault.broken_bitline_rate = 0.05;
  cfg.fault.circuit_check = true;
  cfg.fault.circuit_check_size = 16;
  const DesignPoint p{128, 16, 28};
  Constraints unconstrained;
  unconstrained.max_error = 1.0;

  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const long before = reg.counter("spice.solves");
  const auto rep = analyze_sensitivity(net, cfg, p);
  const long memo_solves = reg.counter("spice.solves") - before;

  const long fresh_before = reg.counter("spice.solves");
  const DesignMetrics fresh_base =
      evaluate_design(net, cfg, p, unconstrained).metrics;
  EXPECT_EQ(rep.base_metrics.area, fresh_base.area);
  EXPECT_EQ(rep.base_metrics.energy_per_sample, fresh_base.energy_per_sample);
  EXPECT_EQ(rep.base_metrics.latency, fresh_base.latency);
  EXPECT_EQ(rep.base_metrics.max_error_rate, fresh_base.max_error_rate);
  EXPECT_EQ(rep.base_metrics.avg_error_rate, fresh_base.avg_error_rate);
  EXPECT_EQ(rep.base_metrics.solver_fallbacks, fresh_base.solver_fallbacks);
  EXPECT_EQ(rep.base_metrics.faults_injected, fresh_base.faults_injected);
  EXPECT_GT(fresh_base.faults_injected, 0);

  auto rel = [](double v, double b) { return b != 0.0 ? (v - b) / b : 0.0; };
  ASSERT_EQ(rep.entries.size(), 6u);
  for (const auto& e : rep.entries) {
    SCOPED_TRACE(e.knob);
    const DesignMetrics fresh =
        evaluate_design(net, cfg, e.varied_point, unconstrained).metrics;
    EXPECT_EQ(e.d_area, rel(fresh.area, fresh_base.area));
    EXPECT_EQ(e.d_energy,
              rel(fresh.energy_per_sample, fresh_base.energy_per_sample));
    EXPECT_EQ(e.d_latency, rel(fresh.latency, fresh_base.latency));
    EXPECT_EQ(e.d_error, rel(fresh.max_error_rate, fresh_base.max_error_rate));
  }
  const long fresh_solves = reg.counter("spice.solves") - fresh_before;
  reg.set_enabled(was_enabled);
  // Seven memo-free evaluations of two banks each, against the distinct
  // circuits alone.
  EXPECT_EQ(fresh_solves, 14);
  EXPECT_LT(memo_solves, fresh_solves);
}

}  // namespace
}  // namespace mnsim::dse
