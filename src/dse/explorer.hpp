// Exhaustive design-space exploration (paper Sec. VII-C/D).
//
// Evaluates every design point with the behavior-level models, filters by
// the computing-error constraint, and reports the optimum per objective —
// the content of Tables IV and VI — plus the trade-off series behind
// Figs. 7 and 8.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "check/diagnostic.hpp"
#include "dse/space.hpp"

namespace mnsim::dse {

// kStalls and kTraffic come from the cycle-level engine and are only
// populated when `base.cycle_enabled` is set — with the engine off they
// stay 0 and selecting on them degenerates to area tie-breaking.
enum class Objective { kArea, kEnergy, kLatency, kAccuracy, kPower,
                       kStalls, kTraffic };

struct DesignMetrics {
  double area = 0.0;              // [m^2]
  double energy_per_sample = 0.0; // [J]
  double latency = 0.0;           // pipeline-cycle latency [s]
  double sample_latency = 0.0;    // full sample [s]
  double power = 0.0;             // [W]
  double max_error_rate = 0.0;    // worst-case digital error (Eq. 13)
  double avg_error_rate = 0.0;    // average digital error (Eq. 14)
  int solver_fallbacks = 0;       // degraded circuit solves (CG retry + LU)
  int faults_injected = 0;        // hard defects injected by the fault model
  // Cycle-level memory-hierarchy metrics ([cycle] Enabled; 0 otherwise).
  double stall_fraction = 0.0;    // stall cycles / makespan cycles
  double backing_traffic = 0.0;   // backing-store bytes per sample

  [[nodiscard]] double objective_value(Objective objective) const;
};

// Feasibility region: error is the paper's constraint; area, power and
// latency budgets support the inverse questions ("best accuracy within
// 50 mm^2 and 5 W").
struct Constraints {
  double max_error = 0.25;
  double max_area = 0.0;     // [m^2]; <= 0 means unconstrained
  double max_power = 0.0;    // [W];   <= 0 means unconstrained
  double max_latency = 0.0;  // [s];   <= 0 means unconstrained

  [[nodiscard]] bool admits(const DesignMetrics& metrics) const;
  void validate() const;
};

struct EvaluatedDesign {
  DesignPoint point;
  DesignMetrics metrics;
  bool feasible = false;  // meets all constraints
  bool evaluated = true;  // false when simulation threw (see `failure`)
  std::string failure;    // diagnostic message of the failed evaluation
};

struct ExplorationResult {
  std::vector<EvaluatedDesign> designs;
  double error_constraint = 0.25;
  long feasible_count = 0;
  long failed_count = 0;  // points whose simulation threw (kept, infeasible)

  // Non-fatal findings about the sweep itself — MN-DSE-006 when every
  // point failed, MN-DSE-007 on a torn journal tail. Kept on the result
  // (not thrown) so partial data survives for diagnosis; callers decide
  // the exit status.
  std::vector<check::Diagnostic> diagnostics;

  // Best feasible design for one objective; ties broken by area.
  // Returns nullopt when nothing is feasible.
  [[nodiscard]] std::optional<EvaluatedDesign> best(
      Objective objective) const;

  // 2-D Pareto front over (latency, area) among feasible designs — the
  // Fig. 8 trade-off curve, sorted by latency.
  [[nodiscard]] std::vector<EvaluatedDesign> latency_area_pareto() const;

  // Full 4-D Pareto front (area, energy, latency, error): feasible
  // designs not dominated on all four objectives simultaneously.
  [[nodiscard]] std::vector<EvaluatedDesign> pareto_front() const;

  // The paper's trade-off analysis: "a compromised result among all
  // performance factors". Scores every feasible design by the weighted
  // geometric mean of its per-objective values normalized to the best
  // feasible value of each objective (lower is better on every axis) and
  // returns the minimizer. Weights default to equal; zero weight drops
  // an objective.
  struct CompromiseWeights {
    double area = 1.0;
    double energy = 1.0;
    double latency = 1.0;
    double accuracy = 1.0;  // weight on the error rate
  };
  [[nodiscard]] std::optional<EvaluatedDesign> compromise(
      const CompromiseWeights& weights) const;
  [[nodiscard]] std::optional<EvaluatedDesign> compromise() const {
    return compromise(CompromiseWeights{});
  }
};

// Evaluates the network over the whole space; `base` supplies every
// parameter the space does not sweep. This is run_sweep (dse/shard.hpp)
// with no journal, no watchdog and one attempt per point: a point that
// throws is recorded failed-infeasible and the sweep runs on.
ExplorationResult explore(const nn::Network& network,
                          const arch::AcceleratorConfig& base,
                          const DesignSpace& space,
                          const Constraints& constraints);
// Error-only convenience (the paper's constraint form).
ExplorationResult explore(const nn::Network& network,
                          const arch::AcceleratorConfig& base,
                          const DesignSpace& space, double error_constraint);

// Evaluates one point (the sweep kernel, exposed for benches/tests).
// `memo` is the calling sweep's circuit memo (arch/circuit_check_memo.hpp);
// null evaluates the point on its own, with identical results.
EvaluatedDesign evaluate_design(const nn::Network& network,
                                const arch::AcceleratorConfig& base,
                                const DesignPoint& point,
                                const Constraints& constraints,
                                arch::CircuitCheckMemo* memo = nullptr);

}  // namespace mnsim::dse
