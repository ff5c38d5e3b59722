#include "spice/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/netlist_check.hpp"
#include "obs/metrics.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/delay.hpp"
#include "spice/mna.hpp"
#include "util/cancel.hpp"

namespace mnsim::spice {
namespace {

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // 1 kOhm into 1 pF: v(t) = V (1 - exp(-t/tau)), tau = 1 ns.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);

  TransientOptions opt;
  opt.time_step = 10e-12;
  opt.end_time = 5e-9;
  auto res = solve_transient(nl, {out}, opt);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.time.size(), res.probe_voltages[0].size());

  const double tau = 1e-9;
  for (std::size_t i = 0; i < res.time.size(); ++i) {
    const double expected = 1.0 - std::exp(-res.time[i] / tau);
    // Backward Euler is first order; allow a few percent at dt = tau/100.
    EXPECT_NEAR(res.probe_voltages[0][i], expected, 0.03) << "t=" << res.time[i];
  }
}

TEST(Transient, SettlingTimeNearLogTolTau) {
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);
  TransientOptions opt;
  opt.time_step = 5e-12;
  opt.end_time = 10e-9;
  auto res = solve_transient(nl, {out}, opt);
  // Settle to 1 %: t = tau * ln(100) ~ 4.6 ns.
  EXPECT_NEAR(res.settling_time(0, 0.01), 4.6e-9, 0.5e-9);
}

TEST(Transient, FinalValueMatchesDcOperatingPoint) {
  // Nonlinear: memristor + series resistor + cap; the transient must
  // converge to the DC solution.
  auto device = tech::default_rram();
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_resistor(in, mid, 300.0);
  nl.add_memristor(mid, kGround, 700.0);
  nl.add_capacitor(mid, kGround, 1e-13);

  auto dc = solve_dc(nl);
  TransientOptions opt;
  opt.time_step = 2e-12;
  opt.end_time = 2e-9;
  auto res = solve_transient(nl, {mid}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.probe_voltages[0].back(), dc.voltage(mid),
              1e-3 * dc.voltage(mid));
}

TEST(Transient, PureResistiveSettlesImmediately) {
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 0.5);
  nl.add_resistor(in, out, 100.0);
  nl.add_resistor(out, kGround, 100.0);
  TransientOptions opt;
  opt.time_step = 1e-12;
  opt.end_time = 1e-11;
  auto res = solve_transient(nl, {out}, opt);
  EXPECT_NEAR(res.probe_voltages[0][1], 0.25, 1e-9);  // first step already
  // The t = 0 sample is the pre-step zero state, so settling completes at
  // the first integration step.
  EXPECT_DOUBLE_EQ(res.settling_time(0), res.time[1]);
}

TEST(Transient, CrossbarSettlesNearElmorePrediction) {
  // A small crossbar with exaggerated wire RC: the transient settling
  // time must land within a small factor of the Elmore-based estimate.
  auto device = tech::default_rram();
  auto spec =
      CrossbarSpec::uniform(8, 8, device, 5.0, 60.0, device.r_min.value());
  spec.segment_capacitance = 50e-15;
  spec.linear_memristors = true;

  std::vector<NodeId> columns;
  Netlist nl = build_crossbar_netlist(spec, &columns);
  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 40e-9;
  auto res = solve_transient(nl, {columns.back()}, opt);
  ASSERT_TRUE(res.converged);
  const double measured = res.settling_time(0, 0.01);
  const double tau = crossbar_elmore_tau(spec, spec.segment_capacitance);
  EXPECT_GT(measured, 0.1 * tau * std::log(100.0));
  EXPECT_LT(measured, 5.0 * tau * std::log(100.0));
}

TEST(Transient, InvalidArgumentsThrow) {
  Netlist nl;
  NodeId n = nl.add_node();
  nl.add_source(n, 1.0);
  TransientOptions opt;
  opt.time_step = 0.0;
  EXPECT_THROW(solve_transient(nl, {n}, opt), std::invalid_argument);
  opt = TransientOptions{};
  EXPECT_THROW(solve_transient(nl, {99}, opt), std::invalid_argument);
  // Non-finite inputs, and step counts that overflow a long, are
  // rejected before the step count is cast.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [dt, end] :
       {std::pair{inf, 1e-9}, std::pair{1e-12, inf}, std::pair{nan, 1e-9},
        std::pair{1e-12, nan}, std::pair{1e-300, 1e-9},
        std::pair{1e-12, -1e-9}}) {
    opt.time_step = dt;
    opt.end_time = end;
    EXPECT_THROW(solve_transient(nl, {n}, opt), std::invalid_argument)
        << "dt=" << dt << " end=" << end;
  }
  auto res = solve_transient(nl, {n}, TransientOptions{});
  EXPECT_THROW((void)res.settling_time(5), std::out_of_range);
}


TEST(Transient, StronglyNonlinearDeviceStaysFinite) {
  // A device with a tiny nonlinearity scale drives |v / v_t| far above
  // sinh's overflow threshold during the step: before the companion
  // model saturated its argument (tech::kMaxSinhArg, the same clamp the
  // DC stamp uses), the first Newton iterate produced inf conductance
  // and the solve failed. It must now converge to the DC operating
  // point like any other deck.
  auto device = tech::default_rram();
  device.nonlinearity_vt = units::Volts{1e-4};  // v_read / v_t = 500
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_resistor(in, mid, 1e3);
  nl.add_memristor(mid, kGround, 10e3);
  nl.add_capacitor(mid, kGround, 1e-15);

  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 2e-9;
  auto res = solve_transient(nl, {mid}, opt);
  ASSERT_TRUE(res.converged);
  for (double v : res.probe_voltages[0]) ASSERT_TRUE(std::isfinite(v));
  const auto dc = solve_dc(nl);
  EXPECT_NEAR(res.probe_voltages[0].back(), dc.node_voltages[mid], 1e-6);
}

TEST(Transient, HonoursTheWatchdog) {
  // Every step goes through the DC Newton loop, which polls the
  // cooperative watchdog: a run under an already-requested token stops.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);
  util::CancelToken token;
  token.request();
  util::ScopedCancel scope(&token);
  EXPECT_THROW(solve_transient(nl, {out}, TransientOptions{}),
               util::CancelledError);
}

TEST(Transient, ReportsDiagnosticsOfEveryStep) {
  // 8x8 RC crossbar with nonlinear cells: one cache serves the run, so
  // the pattern is built by the first assembly and refilled by every
  // later one, every step warm-starts from the previous one, the wire
  // structure routes the linear solves through the Schur rung, and each
  // step is one metered solve.
  auto device = tech::default_rram();
  auto spec =
      CrossbarSpec::uniform(8, 8, device, 5.0, 60.0, device.r_min.value());
  spec.segment_capacitance = 50e-15;
  std::vector<NodeId> columns;
  Netlist nl = build_crossbar_netlist(spec, &columns);
  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 2e-9;

  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  const long solves_before = reg.counter("spice.solves");
  const auto res = solve_transient(nl, {columns.back()}, opt);
  ASSERT_TRUE(res.converged);
  const long steps = static_cast<long>(res.time.size()) - 1;
  ASSERT_GT(steps, 0);
  const SolverDiagnostics& d = res.diagnostics;
  EXPECT_GT(d.schur_solves, 0);
  EXPECT_EQ(d.warm_starts, steps);
  EXPECT_GT(d.newton_iterations, steps);  // some steps iterate Newton
  EXPECT_EQ(d.cache_hits, d.newton_iterations - 1);
  EXPECT_FALSE(d.degraded());
  EXPECT_EQ(reg.counter("spice.solves") - solves_before, steps);
}

TEST(Transient, CapacitorOnlyNodeIntegrates) {
  // Node `mid` is reached only through capacitors: floating at DC, so the
  // DC pre-flight refuses it (MN-NET-004), but every backward-Euler step
  // is well-posed. From zero charge it follows the capacitive divider
  // v_mid = v_out * C1 / (C1 + C2) exactly.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, mid, 1e-12);
  nl.add_capacitor(mid, kGround, 3e-12);

  check::NetlistCheckOptions structural;
  structural.connectivity = false;
  EXPECT_TRUE(check::check_netlist(nl, structural).has_code("MN-NET-004"));
  EXPECT_THROW(solve_dc(nl), check::CheckError);

  TransientOptions opt;
  opt.time_step = 10e-12;
  opt.end_time = 5e-9;
  const auto res = solve_transient(nl, {out, mid}, opt);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < res.time.size(); ++i)
    EXPECT_NEAR(res.probe_voltages[1][i], 0.25 * res.probe_voltages[0][i],
                1e-9)
        << "t=" << res.time[i];
  // tau = R * (C1 series C2) = 0.75 ns, so 5 ns is about 6.7 tau.
  EXPECT_NEAR(res.probe_voltages[0].back(), 1.0, 1e-2);
}

}  // namespace
}  // namespace mnsim::spice
