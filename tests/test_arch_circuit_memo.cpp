// The sweep circuit memo (arch/circuit_check_memo.hpp) and its
// compute-once table (util/compute_once.hpp): a hit returns exactly what
// a fresh computation returns, any change to any keyed input is a miss,
// a failed computation stores nothing, and a waiting caller still honours
// its own cancellation token.
#include "arch/circuit_check_memo.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cancel.hpp"

namespace mnsim {
namespace {

spice::CrossbarSpec small_spec() {
  const auto device = tech::default_rram();
  return spice::CrossbarSpec::uniform(4, 4, device, 0.5, 60.0,
                                      device.r_min.value());
}

void expect_same(const spice::SolverDiagnostics& a,
                 const spice::SolverDiagnostics& b) {
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  EXPECT_EQ(a.newton_residual, b.newton_residual);
  EXPECT_EQ(a.cg_iterations, b.cg_iterations);
  EXPECT_EQ(a.cg_retries, b.cg_retries);
  EXPECT_EQ(a.lu_fallbacks, b.lu_fallbacks);
  EXPECT_EQ(a.damped_steps, b.damped_steps);
  EXPECT_EQ(a.linear_residual, b.linear_residual);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.schur_solves, b.schur_solves);
  EXPECT_EQ(a.schur_iterations, b.schur_iterations);
  EXPECT_EQ(a.schur_rejects, b.schur_rejects);
  EXPECT_EQ(a.factor_reuses, b.factor_reuses);
  EXPECT_EQ(a.condition_estimate, b.condition_estimate);
}

void expect_same(const fault::FaultErrorResult& a,
                 const fault::FaultErrorResult& b) {
  EXPECT_EQ(a.fault_worst, b.fault_worst);
  EXPECT_EQ(a.fault_average, b.fault_average);
  EXPECT_EQ(a.combined_worst, b.combined_worst);
  EXPECT_EQ(a.combined_average, b.combined_average);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.seed, b.seed);
}

// --- CircuitCheckMemo -------------------------------------------------------

TEST(CircuitCheckMemo, HitReturnsTheFreshSolveWithoutSolving) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const auto spec = small_spec();
  const spice::DcOptions options;
  const auto fresh = spice::solve_crossbar(spec, options).dc.diagnostics;

  arch::CircuitCheckMemo memo;
  const long before = reg.counter("spice.solves");
  expect_same(memo.circuit_check(spec, options), fresh);
  expect_same(memo.circuit_check(spec, options), fresh);
  EXPECT_EQ(reg.counter("spice.solves") - before, 1);
  EXPECT_EQ(memo.distinct_circuits(), 1u);
  reg.set_enabled(was_enabled);
}

TEST(CircuitCheckMemo, EverySpecAndOptionFieldIsPartOfTheKey) {
  using Edit = std::function<void(spice::CrossbarSpec&, spice::DcOptions&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"one stuck cell",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         fault::DefectMap map;
         map.rows = s.rows;
         map.cols = s.cols;
         map.stuck_cells = {{1, 2, fault::FaultKind::kStuckAtZero}};
         fault::apply_to_spec(map, s);
       }},
      {"segment_resistance",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.segment_resistance = 0.25;
       }},
      {"sense_resistance",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.sense_resistance = 120.0;
       }},
      {"input voltage",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.input_voltages[3] *= 0.5;
       }},
      {"device nonlinearity_vt",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.device.nonlinearity_vt = units::Volts{0.08};
       }},
      {"device name",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.device.name = "RRAM-b";
       }},
      {"linear_memristors",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.linear_memristors = true;
       }},
      {"ideal_wires",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.ideal_wires = true;
       }},
      {"segment_capacitance",
       [](spice::CrossbarSpec& s, spice::DcOptions&) {
         s.segment_capacitance = 1e-15;
       }},
      {"newton_tolerance",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.newton_tolerance = 1e-8;
       }},
      {"max_newton_iterations",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.max_newton_iterations = 30;
       }},
      {"cg_tolerance",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.cg_tolerance = 1e-10;
       }},
      {"cg_max_iterations",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.cg_max_iterations = 500;
       }},
      {"allow_cg_retry",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.allow_cg_retry = false;
       }},
      {"allow_dense_fallback",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.allow_dense_fallback = false;
       }},
      {"dense_fallback_limit",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.dense_fallback_limit = 100;
       }},
      {"allow_schur",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.allow_schur = false;
       }},
      {"max_damping_retries",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.max_damping_retries = 2;
       }},
      {"preflight",
       [](spice::CrossbarSpec&, spice::DcOptions& o) {
         o.preflight = false;
       }},
  };

  const auto base = small_spec();
  const spice::DcOptions base_options;
  arch::CircuitCheckMemo memo;
  memo.circuit_check(base, base_options);
  std::size_t expected = 1;
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    auto spec = base;
    auto options = base_options;
    edit(spec, options);
    const auto fresh = spice::solve_crossbar(spec, options).dc.diagnostics;
    expect_same(memo.circuit_check(spec, options), fresh);
    EXPECT_EQ(memo.distinct_circuits(), ++expected);
  }
  memo.circuit_check(base, base_options);  // still a hit
  EXPECT_EQ(memo.distinct_circuits(), expected);
}

TEST(CircuitCheckMemo, EveryFaultInputIsPartOfTheKey) {
  using Edit =
      std::function<void(accuracy::CrossbarErrorInputs&, fault::FaultConfig&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"rows", [](auto& in, auto&) { in.rows = 17; }},
      {"cols", [](auto& in, auto&) { in.cols = 15; }},
      {"device r_max",
       [](auto& in, auto&) { in.device.r_max = units::Ohms{400e3}; }},
      {"segment_resistance",
       [](auto& in, auto&) { in.segment_resistance = units::Ohms{0.5}; }},
      {"sense_resistance",
       [](auto& in, auto&) { in.sense_resistance = units::Ohms{120.0}; }},
      {"wire_alpha", [](auto& in, auto&) { in.wire_alpha *= 1.5; }},
      {"stuck_at_zero_rate",
       [](auto&, auto& f) { f.stuck_at_zero_rate = 0.06; }},
      {"stuck_at_one_rate",
       [](auto&, auto& f) { f.stuck_at_one_rate = 0.01; }},
      {"broken_wordline_rate",
       [](auto&, auto& f) { f.broken_wordline_rate = 0.1; }},
      {"broken_bitline_rate",
       [](auto&, auto& f) { f.broken_bitline_rate = 0.1; }},
      {"retention_time", [](auto&, auto& f) { f.retention_time = 1e6; }},
      {"seed", [](auto&, auto& f) { f.seed = 7; }},
      {"circuit_check", [](auto&, auto& f) { f.circuit_check = true; }},
      {"circuit_check_size",
       [](auto&, auto& f) { f.circuit_check_size = 8; }},
  };

  accuracy::CrossbarErrorInputs base;
  base.rows = 16;
  base.cols = 16;
  fault::FaultConfig base_config;
  base_config.stuck_at_zero_rate = 0.05;
  arch::CircuitCheckMemo memo;
  expect_same(memo.fault_error(base, base_config),
              fault::estimate_fault_error(base, base_config));
  std::size_t expected = 1;
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    auto in = base;
    auto config = base_config;
    edit(in, config);
    expect_same(memo.fault_error(in, config),
                fault::estimate_fault_error(in, config));
    EXPECT_EQ(memo.distinct_fault_inputs(), ++expected);
  }
  memo.fault_error(base, base_config);  // still a hit
  EXPECT_EQ(memo.distinct_fault_inputs(), expected);
}

TEST(CircuitCheckMemo, FailedComputationsLeaveNoEntry) {
  arch::CircuitCheckMemo memo;
  const auto spec = small_spec();
  const spice::DcOptions options;

  // A cancelled solve (a watchdog deadline) stores nothing; the retry
  // outside the cancelled scope solves and stores the circuit.
  util::CancelToken token;
  token.request();
  {
    const util::ScopedCancel scope(&token);
    EXPECT_THROW(memo.circuit_check(spec, options), util::CancelledError);
  }
  EXPECT_EQ(memo.distinct_circuits(), 0u);
  expect_same(memo.circuit_check(spec, options),
              spice::solve_crossbar(spec, options).dc.diagnostics);
  EXPECT_EQ(memo.distinct_circuits(), 1u);

  // A refused circuit fails again, with the same text, on every call.
  auto bad = spec;
  bad.cell_resistance[0][0] = -1.0;
  std::string first_failure;
  for (int call = 0; call < 2; ++call) {
    try {
      memo.circuit_check(bad, options);
      ADD_FAILURE() << "negative cell resistance solved";
    } catch (const std::exception& e) {
      if (call == 0) first_failure = e.what();
      EXPECT_EQ(first_failure, e.what());
    }
  }
  EXPECT_EQ(memo.distinct_circuits(), 1u);

  // An invalid fault configuration throws on every call, too.
  accuracy::CrossbarErrorInputs in;
  fault::FaultConfig invalid;
  invalid.stuck_at_zero_rate = 2.0;
  EXPECT_THROW(memo.fault_error(in, invalid), std::invalid_argument);
  EXPECT_THROW(memo.fault_error(in, invalid), std::invalid_argument);
  EXPECT_EQ(memo.distinct_fault_inputs(), 0u);
}

// --- ComputeOnce ------------------------------------------------------------

// Runs get("k") on a second thread whose compute blocks until release().
class BlockedFirstCaller {
 public:
  explicit BlockedFirstCaller(util::ComputeOnce<int>& table,
                              bool throws = false)
      : thread_([this, &table, throws] {
          try {
            result_ = table.get("k", [this, throws]() -> int {
              started_.set_value();
              release_future_.wait();
              if (throws) throw std::runtime_error("first caller failed");
              return 42;
            });
          } catch (const std::runtime_error&) {
            failed_ = true;
          }
        }) {
    started_future_.wait();
  }
  ~BlockedFirstCaller() { finish(); }
  BlockedFirstCaller(const BlockedFirstCaller&) = delete;
  BlockedFirstCaller& operator=(const BlockedFirstCaller&) = delete;

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }
  void finish() {
    release();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] int result() const { return result_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  std::promise<void> started_;
  std::future<void> started_future_ = started_.get_future();
  std::promise<void> release_;
  std::shared_future<void> release_future_ = release_.get_future().share();
  bool released_ = false;
  int result_ = 0;
  bool failed_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

TEST(ComputeOnce, WaiterReceivesTheFirstCallersValue) {
  util::ComputeOnce<int> table;
  BlockedFirstCaller first(table);
  int computes = 0;
  std::thread second([&] {
    EXPECT_EQ(table.get("k", [&] { return ++computes; }), 42);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  first.finish();
  second.join();
  EXPECT_EQ(first.result(), 42);
  EXPECT_EQ(computes, 0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ComputeOnce, CancelledWaiterThrowsInsteadOfHanging) {
  util::ComputeOnce<int> table;
  BlockedFirstCaller first(table);
  // "k" stays in flight until release(): this caller can only wait, and
  // its requested token must get it out.
  util::CancelToken token;
  token.request();
  {
    const util::ScopedCancel scope(&token);
    EXPECT_THROW(table.get("k", [] { return -1; }), util::CancelledError);
  }
  first.finish();
  EXPECT_EQ(first.result(), 42);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ComputeOnce, ThrowingComputeLeavesNoEntryAndAWaiterTakesOver) {
  util::ComputeOnce<int> table;
  BlockedFirstCaller first(table, /*throws=*/true);
  int second_result = 0;
  std::thread second([&] { second_result = table.get("k", [] { return 7; }); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  first.finish();
  second.join();
  EXPECT_TRUE(first.failed());
  EXPECT_EQ(second_result, 7);
  EXPECT_EQ(table.size(), 1u);

  EXPECT_THROW(table.get("bad", []() -> int { throw std::logic_error("x"); }),
               std::logic_error);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.get("bad", [] { return 3; }), 3);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace mnsim
