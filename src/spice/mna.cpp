#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/netlist_check.hpp"
#include "numeric/resilient.hpp"
#include "numeric/sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/mna_internal.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace mnsim::spice {

void SolverDiagnostics::absorb(const SolverDiagnostics& other) {
  newton_iterations += other.newton_iterations;
  newton_residual = std::max(newton_residual, other.newton_residual);
  cg_iterations += other.cg_iterations;
  cg_retries += other.cg_retries;
  lu_fallbacks += other.lu_fallbacks;
  damped_steps += other.damped_steps;
  linear_residual = std::max(linear_residual, other.linear_residual);
  faults_injected += other.faults_injected;
  cache_hits += other.cache_hits;
  warm_starts += other.warm_starts;
  schur_solves += other.schur_solves;
  schur_iterations += other.schur_iterations;
  schur_rejects += other.schur_rejects;
  factor_reuses += other.factor_reuses;
  condition_estimate = std::max(condition_estimate, other.condition_estimate);
  threads = std::max(threads, other.threads);
}

namespace {

struct Indexer {
  // Maps node id -> unknown index, or -1 for ground / pinned nodes.
  std::vector<int> unknown_of_node;
  std::vector<double> pinned_voltage;  // by node id (0 where free)
  int unknown_count = 0;
};

Indexer build_indexer(const Netlist& nl) {
  const int nodes = nl.node_count() + 1;  // include ground slot
  Indexer ix;
  ix.unknown_of_node.assign(nodes, -2);
  ix.pinned_voltage.assign(nodes, 0.0);
  ix.unknown_of_node[kGround] = -1;
  for (const auto& s : nl.sources()) {
    ix.unknown_of_node[s.node] = -1;
    ix.pinned_voltage[s.node] = s.volts;
  }
  for (int n = 1; n < nodes; ++n) {
    if (ix.unknown_of_node[n] == -2)
      ix.unknown_of_node[n] = ix.unknown_count++;
  }
  return ix;
}

// Sink adapter for stamping into a CSR matrix with a frozen sparsity
// pattern (values-only refill). `ok` drops to false when a stamp misses
// the pattern — the caller must then rebuild from a SparseBuilder.
struct CsrRefillSink {
  numeric::CsrMatrix* matrix = nullptr;
  bool ok = true;

  void add(std::size_t row, std::size_t col, double value) {
    if (!matrix->add_at(row, col, value)) ok = false;
  }
};

// Stamps a conductance g between nodes a and b, with an optional parallel
// current source i_src flowing a -> b (companion model), into (A, rhs).
// MatrixSink is anything with add(row, col, value): a SparseBuilder on
// first assembly, a CsrRefillSink when the pattern is cached.
template <typename MatrixSink>
void stamp(const Indexer& ix, MatrixSink& a, std::vector<double>& rhs,
           NodeId na, NodeId nb, double g, double i_src) {
  const int ua = ix.unknown_of_node[na];
  const int ub = ix.unknown_of_node[nb];
  const double va = ua < 0 ? ix.pinned_voltage[na] : 0.0;
  const double vb = ub < 0 ? ix.pinned_voltage[nb] : 0.0;
  if (ua >= 0) {
    a.add(static_cast<std::size_t>(ua), static_cast<std::size_t>(ua), g);
    rhs[static_cast<std::size_t>(ua)] -= i_src;
    if (ub >= 0)
      a.add(static_cast<std::size_t>(ua), static_cast<std::size_t>(ub), -g);
    else
      rhs[static_cast<std::size_t>(ua)] += g * vb;
  }
  if (ub >= 0) {
    a.add(static_cast<std::size_t>(ub), static_cast<std::size_t>(ub), g);
    rhs[static_cast<std::size_t>(ub)] += i_src;
    if (ua >= 0)
      a.add(static_cast<std::size_t>(ub), static_cast<std::size_t>(ua), -g);
    else
      rhs[static_cast<std::size_t>(ub)] += g * va;
  }
}

// A backward-Euler time step: capacitors join the assembly as companion
// models, integrating from the node voltages (by node id) of the
// previous accepted step. Absent (null) for DC solves, where capacitors
// are open circuits.
struct EulerStep {
  double dt = 0.0;
  const std::vector<double>* previous = nullptr;
};

// Stamps every element of `nl` into (sink, rhs) with the companion model
// linearized around `voltages` (by node id). One call = one assembly.
template <typename MatrixSink>
void assemble(const Netlist& nl, const Indexer& ix,
              const std::vector<double>& voltages, const EulerStep* step,
              MatrixSink& sink, std::vector<double>& rhs) {
  const auto& dev = nl.device();
  // The sinh/cosh companion model overflows for iterates far outside the
  // physical range; clamp the argument so a wild Newton step degrades
  // into damping instead of NaN propagation.

  for (const auto& r : nl.resistors())
    stamp(ix, sink, rhs, r.a, r.b, 1.0 / r.ohms, 0.0);

  for (const auto& m : nl.memristors()) {
    if (nl.linear_memristors()) {
      stamp(ix, sink, rhs, m.a, m.b, 1.0 / m.r_state, 0.0);
      continue;
    }
    // Companion model around the previous iterate, linearized at the
    // saturated point vc = clamp(v0, +-max_arg * vt):
    //   I(v) ~= I(vc) + g_d (v - vc), g_d = dI/dV(vc)
    // stamped as conductance g_d plus current source I(vc) - g_d vc.
    // Linearizing at vc (not v0) keeps the tangent consistent with the
    // point the law was evaluated at when an iterate overshoots.
    const double v0 = voltages[m.a] - voltages[m.b];
    const double vt = dev.nonlinearity_vt.value();
    const double vc = std::clamp(v0, -tech::kMaxSinhArg * vt,
                                 tech::kMaxSinhArg * vt);
    const double a_coef = vt / m.r_state;
    const double i0 = a_coef * std::sinh(vc / vt);
    const double gd = std::cosh(vc / vt) / m.r_state;
    stamp(ix, sink, rhs, m.a, m.b, gd, i0 - gd * vc);
  }

  if (step == nullptr) return;
  // Backward-Euler capacitor companion: G = C/dt with a history current
  // source -(C/dt) * v_prev flowing a -> b.
  const std::vector<double>& prev = *step->previous;
  for (const auto& c : nl.capacitors()) {
    const double g = c.farads / step->dt;
    stamp(ix, sink, rhs, c.a, c.b, g, -g * (prev[c.a] - prev[c.b]));
  }
}

// Translates wire-chain node ids to reduced-system unknown indices. An
// unusable structure (a pinned node inside a chain, chains that do not
// cover every unknown exactly once) yields an empty partition — the
// solver then simply skips the Schur rung.
numeric::BipartitePartition translate_partition(const WireStructure& ws,
                                                const Indexer& ix,
                                                std::size_t n_unknowns) {
  numeric::BipartitePartition p;
  std::size_t covered = 0;
  const auto convert = [&](const std::vector<std::vector<NodeId>>& chains,
                           std::vector<std::vector<std::size_t>>& out) {
    out.reserve(chains.size());
    for (const auto& chain : chains) {
      std::vector<std::size_t> c;
      c.reserve(chain.size());
      for (NodeId node : chain) {
        if (node <= 0 ||
            static_cast<std::size_t>(node) >= ix.unknown_of_node.size())
          return false;
        const int u = ix.unknown_of_node[static_cast<std::size_t>(node)];
        if (u < 0) return false;
        c.push_back(static_cast<std::size_t>(u));
      }
      if (!c.empty()) {
        covered += c.size();
        out.push_back(std::move(c));
      }
    }
    return true;
  };
  if (!convert(ws.row_chains, p.eliminated_chains) ||
      !convert(ws.col_chains, p.kept_chains) || covered != n_unknowns)
    return {};
  return p;
}

// The solver's pre-flight throws only on errors, so it runs the analysis
// without the plausibility warnings; a refused netlist is re-checked in
// full so the CheckError carries the default check_netlist list,
// warnings included.
void preflight(const Netlist& nl) {
  obs::Span span("spice.preflight");
  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) reg.add("spice.preflights");
  check::NetlistCheckOptions errors_only;
  errors_only.warnings = false;
  if (!check::check_netlist(nl, errors_only).has_errors()) return;
  throw check::CheckError(check::check_netlist(nl));
}

// What MnaCache::vetted_counts records: the structure as far as the
// append-only Netlist API can change it.
std::array<std::size_t, 5> structure_counts(const Netlist& nl) {
  return {static_cast<std::size_t>(nl.node_count()), nl.resistors().size(),
          nl.memristors().size(), nl.sources().size(),
          nl.capacitors().size()};
}

// The actual solve; the public solve_dc wraps it in a trace span and
// publishes the diagnostics into the metrics registry on every exit
// path. `prefactored` is the batch engine's factor-once Schur handle
// (null outside solve_dc_batch); it is only consulted while the cached
// matrix is being value-refilled, i.e. while the batch's shared-matrix
// guarantee holds. `step` turns the solve into one backward-Euler time
// step (null for DC).
DcResult solve_dc_impl(const Netlist& nl, const DcOptions& opt,
                       MnaCache* cache,
                       const numeric::SchurFactorization* prefactored,
                       const EulerStep* step) {
  // Refuse-with-diagnosis: vet the topology before any numeric work.
  // A cache with a valid pattern and matching counts means this structure
  // already passed whichever check its first solve ran, so sweep
  // iterations, batch entries and transient steps skip straight to
  // assembly; a netlist grown since then is checked again.
  const auto counts = structure_counts(nl);
  const bool vetted = cache != nullptr && cache->pattern_valid &&
                      cache->vetted_counts == counts;
  if (!vetted) {
    if (opt.preflight)
      preflight(nl);
    else
      nl.validate();
    if (cache != nullptr) cache->vetted_counts = counts;
  }
  const Indexer ix = build_indexer(nl);
  const int nodes = nl.node_count() + 1;
  const auto n_unknowns = static_cast<std::size_t>(ix.unknown_count);

  // The pattern slot: the caller's cache when supplied (reuse across
  // solves), otherwise a local one so Newton iterations within this solve
  // still refill instead of rebuilding. Counters only track cross-solve
  // reuse — the thing sweeps care about — so they stay zero without an
  // external cache.
  MnaCache local_cache;
  const bool external = cache != nullptr;
  MnaCache& mc = external ? *cache : local_cache;

  // Unknown-index partition for the Schur rung, cached alongside the
  // CSR pattern (it encodes the same topology). A failed mid-solve
  // refill invalidates both.
  const numeric::BipartitePartition* partition = nullptr;
  if (opt.allow_schur && !nl.wire_structure().empty()) {
    if (!mc.partition_valid) {
      mc.partition = translate_partition(nl.wire_structure(), ix, n_unknowns);
      mc.partition_valid = true;
    }
    if (!mc.partition.empty()) partition = &mc.partition;
  }

  DcResult result;
  result.node_voltages.assign(nodes, 0.0);
  const bool warm =
      external &&
      mc.warm_start_voltages.size() == static_cast<std::size_t>(nodes);
  for (int n = 0; n < nodes; ++n) {
    if (ix.unknown_of_node[n] < 0)
      result.node_voltages[n] = ix.pinned_voltage[n];
    else if (warm)
      result.node_voltages[n] = mc.warm_start_voltages[n];
  }
  if (warm) {
    ++result.diagnostics.warm_starts;
    ++mc.warm_starts;
  }

  const bool nonlinear = !nl.linear_memristors() && !nl.memristors().empty();
  const int max_iter = nonlinear ? opt.max_newton_iterations : 1;

  double prev_delta = 0.0;
  int damping_budget = std::max(opt.max_damping_retries, 0);

  for (int it = 0; it < max_iter; ++it) {
    // Watchdog poll between Newton iterations (util/cancel.hpp); the
    // inner CG/LU rungs poll at finer granularity.
    util::throw_if_cancelled("spice.newton");
    obs::Span iter_span("spice.newton_iteration");
    std::vector<double> rhs(n_unknowns, 0.0);

    // Assembly: refill the cached CSR pattern in place when its topology
    // matches, else (first solve, or structure changed) rebuild from a
    // SparseBuilder and re-prime the cache.
    bool refilled = false;
    {
      obs::Span asm_span("spice.assemble");
      if (mc.pattern_valid && mc.matrix.size() == n_unknowns) {
        mc.matrix.zero_values();
        CsrRefillSink sink{&mc.matrix};
        assemble(nl, ix, result.node_voltages, step, sink, rhs);
        if (sink.ok) {
          refilled = true;
        } else {
          std::fill(rhs.begin(), rhs.end(), 0.0);
          mc.pattern_valid = false;
          // The structure this solve was indexed against has changed;
          // the cached partition (and any prefactored handle built on
          // it) no longer describes this matrix.
          mc.partition_valid = false;
          partition = nullptr;
          prefactored = nullptr;
        }
      }
      if (!refilled) {
        numeric::SparseBuilder builder(n_unknowns);
        assemble(nl, ix, result.node_voltages, step, builder, rhs);
        mc.matrix = numeric::CsrMatrix(builder);
        mc.pattern_valid = true;
      } else if (external) {
        ++result.diagnostics.cache_hits;
        ++mc.cache_hits;
      }
    }
    const numeric::CsrMatrix& a = mc.matrix;

    // Warm-start the inner CG from the current iterate whenever it is
    // informative: always past the first Newton iteration, and on the
    // first one when the cache supplied a reference solution. The guess
    // depends only on the netlist and the cache contents — never on
    // sweep scheduling — so parallel runs stay bit-identical to serial.
    std::vector<double> guess;
    const bool have_guess = warm || it > 0;
    if (have_guess) {
      guess.resize(n_unknowns);
      for (int n = 1; n < nodes; ++n) {
        const int u = ix.unknown_of_node[n];
        if (u >= 0) guess[static_cast<std::size_t>(u)] =
            result.node_voltages[n];
      }
    }

    numeric::ResilientSolveOptions solve_opt;
    solve_opt.tolerance = opt.cg_tolerance;
    solve_opt.max_iterations = opt.cg_max_iterations;
    solve_opt.allow_cg_retry = opt.allow_cg_retry;
    solve_opt.allow_dense_fallback = opt.allow_dense_fallback;
    solve_opt.dense_fallback_limit = opt.dense_fallback_limit;
    solve_opt.initial_guess = have_guess ? &guess : nullptr;
    solve_opt.partition = partition;
    // The batch engine's factor-once handle is only valid while the
    // matrix is a value-refill of the pattern it was built from.
    solve_opt.schur_factorization =
        (prefactored != nullptr && refilled) ? prefactored : nullptr;
    const auto solve = [&] {
      obs::Span solve_span("spice.linear_solve");
      return numeric::solve_spd_resilient(a, rhs, solve_opt);
    }();
    result.diagnostics.cg_iterations +=
        static_cast<long>(solve.cg_iterations);
    result.diagnostics.cg_retries += solve.cg_retries;
    result.diagnostics.lu_fallbacks += solve.lu_fallbacks;
    result.diagnostics.schur_iterations +=
        static_cast<long>(solve.schur_iterations);
    result.diagnostics.schur_rejects += solve.schur_rejects;
    if (solve.method == numeric::SolveMethod::kSchur) {
      ++result.diagnostics.schur_solves;
      if (solve_opt.schur_factorization != nullptr)
        ++result.diagnostics.factor_reuses;
    }
    result.diagnostics.condition_estimate = std::max(
        result.diagnostics.condition_estimate, solve.condition_estimate);
    result.diagnostics.linear_residual = std::max(
        result.diagnostics.linear_residual, solve.relative_residual);
    if (!solve.converged)
      throw std::runtime_error(
          "solve_dc: linear solve failed (CG stalled and no fallback "
          "succeeded)");

    // Newton update with step damping: a non-finite iterate, or an update
    // that doubles instead of contracting, takes a half step (repeatedly,
    // within the damping budget) from the previous iterate.
    double damping = 1.0;
    double max_delta = 0.0;
    for (;;) {
      max_delta = 0.0;
      bool bad = false;
      for (int n = 1; n < nodes; ++n) {
        const int u = ix.unknown_of_node[n];
        if (u < 0) continue;
        const double target = solve.x[u];
        if (!std::isfinite(target)) {
          bad = true;
          break;
        }
        const double stepped = result.node_voltages[n] +
                               damping * (target - result.node_voltages[n]);
        max_delta = std::max(
            max_delta, std::fabs(stepped - result.node_voltages[n]));
      }
      const bool diverging = nonlinear && it > 0 && prev_delta > 0 &&
                             max_delta > 2.0 * prev_delta;
      if ((bad || diverging) && damping_budget > 0) {
        damping *= 0.5;
        --damping_budget;
        ++result.diagnostics.damped_steps;
        continue;
      }
      if (bad) {
        // Out of damping budget with a non-finite step: keep the previous
        // iterate and report non-convergence honestly.
        result.diagnostics.newton_iterations = result.newton_iterations;
        result.diagnostics.newton_residual = prev_delta;
        result.converged = false;
        return result;
      }
      break;
    }
    for (int n = 1; n < nodes; ++n) {
      const int u = ix.unknown_of_node[n];
      if (u < 0) continue;
      result.node_voltages[n] =
          result.node_voltages[n] +
          damping * (solve.x[u] - result.node_voltages[n]);
    }
    prev_delta = max_delta;
    result.newton_iterations = it + 1;
    result.diagnostics.newton_iterations = result.newton_iterations;
    result.diagnostics.newton_residual = max_delta;
    if (!nonlinear || max_delta < opt.newton_tolerance) {
      result.converged = true;
      break;
    }
  }
  if (!nonlinear) result.converged = true;
  return result;
}

// The traced + metered entry every public solve goes through; the batch
// engine calls it per entry and the transient solver per time step, so
// batched and transient solves are observable exactly like scalar ones.
DcResult solve_dc_traced(const Netlist& nl, const DcOptions& opt,
                         MnaCache* cache,
                         const numeric::SchurFactorization* prefactored,
                         const EulerStep* step = nullptr) {
  obs::Span span("spice.solve_dc");
  DcResult result = solve_dc_impl(nl, opt, cache, prefactored, step);

  // Publish the per-solve diagnostics into the uniform metrics layer.
  // The struct keeps riding in DcResult for per-result reporting; the
  // registry aggregates across every solve of the process, whichever
  // sweep engine drove them.
  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) {
    const SolverDiagnostics& d = result.diagnostics;
    reg.add("spice.solves");
    reg.add("spice.newton_iterations", d.newton_iterations);
    reg.add("spice.cg_iterations", d.cg_iterations);
    if (d.cg_retries) reg.add("spice.cg_retries", d.cg_retries);
    if (d.lu_fallbacks) reg.add("spice.lu_fallbacks", d.lu_fallbacks);
    if (d.damped_steps) reg.add("spice.damped_steps", d.damped_steps);
    if (d.cache_hits) reg.add("spice.cache_hits", d.cache_hits);
    if (d.warm_starts) reg.add("spice.warm_starts", d.warm_starts);
    if (d.schur_solves) reg.add("spice.schur_solves", d.schur_solves);
    if (d.schur_iterations)
      reg.add("spice.schur_iterations", d.schur_iterations);
    if (d.schur_rejects) reg.add("spice.schur_rejects", d.schur_rejects);
    if (d.factor_reuses) reg.add("spice.factor_reuses", d.factor_reuses);
    if (!result.converged) reg.add("spice.nonconverged_solves");
    reg.observe("spice.linear_residual", d.linear_residual);
  }
  return result;
}

}  // namespace

DcResult solve_dc(const Netlist& nl, const DcOptions& opt, MnaCache* cache) {
  return solve_dc_traced(nl, opt, cache, nullptr);
}

DcResult internal::solve_backward_euler_step(
    const Netlist& nl, double dt, const std::vector<double>& previous,
    MnaCache& cache) {
  // Transient runs gate on Netlist::validate() alone (see transient.hpp):
  // a capacitor-only node fails the DC pre-flight but is well-posed here.
  DcOptions opt;
  opt.preflight = false;
  cache.warm_start_voltages = previous;
  const EulerStep step{dt, &previous};
  return solve_dc_traced(nl, opt, &cache, nullptr, &step);
}

void solve_dc_batch_visit(
    const Netlist& base, const std::vector<DcBatchEntry>& entries,
    const DcBatchOptions& opt,
    const std::function<void(std::size_t, const Netlist&, const DcResult&)>&
        visit) {
  obs::Span span("spice.solve_dc_batch");
  if (entries.empty()) return;

  const std::size_t n_src = base.sources().size();
  const std::size_t n_mem = base.memristors().size();
  for (const auto& e : entries) {
    if (!e.source_voltages.empty() && e.source_voltages.size() != n_src)
      throw std::invalid_argument(
          "solve_dc_batch: entry source_voltages size mismatch");
    if (!e.memristor_states.empty() && e.memristor_states.size() != n_mem)
      throw std::invalid_argument(
          "solve_dc_batch: entry memristor_states size mismatch");
  }

  // Vet the topology once — value overrides cannot change structure, so
  // per-entry preflight would re-prove the same facts N times.
  if (opt.dc.preflight)
    preflight(base);
  else
    base.validate();

  // Prime the master cache with one assembly of the base netlist: the
  // CSR pattern (and the partition) depend only on topology, so every
  // worker clone starts with a valid pattern and each entry is a pure
  // value-refill — the same floats a fresh build would produce.
  const Indexer ix = build_indexer(base);
  const int nodes = base.node_count() + 1;
  const auto n_unknowns = static_cast<std::size_t>(ix.unknown_count);
  MnaCache master;
  {
    obs::Span asm_span("spice.assemble");
    std::vector<double> voltages(static_cast<std::size_t>(nodes), 0.0);
    for (int n = 0; n < nodes; ++n)
      if (ix.unknown_of_node[static_cast<std::size_t>(n)] < 0)
        voltages[static_cast<std::size_t>(n)] =
            ix.pinned_voltage[static_cast<std::size_t>(n)];
    std::vector<double> rhs(n_unknowns, 0.0);
    numeric::SparseBuilder builder(n_unknowns);
    assemble(base, ix, voltages, nullptr, builder, rhs);
    master.matrix = numeric::CsrMatrix(builder);
    master.pattern_valid = true;
    master.vetted_counts = structure_counts(base);
  }
  if (opt.warm_start_voltages.size() == static_cast<std::size_t>(nodes))
    master.warm_start_voltages = opt.warm_start_voltages;

  if (opt.dc.allow_schur && !base.wire_structure().empty()) {
    master.partition =
        translate_partition(base.wire_structure(), ix, n_unknowns);
    master.partition_valid = true;
  }

  // Factor-once fast path, decided statically from the batch shape so
  // results and diagnostics cannot depend on scheduling: with linear
  // memristors and no per-entry state overrides, every entry's
  // conductance matrix is value-identical to the master's (sources only
  // enter the right-hand side), so one Schur factorization serves the
  // whole batch.
  const bool linear = base.linear_memristors() || base.memristors().empty();
  bool shared_matrix = linear;
  for (const auto& e : entries)
    if (!e.memristor_states.empty()) {
      shared_matrix = false;
      break;
    }
  numeric::SchurFactorization prefactored;
  if (shared_matrix && master.partition_valid &&
      !master.partition.empty()) {
    obs::Span factor_span("numeric.batch");
    prefactored =
        numeric::SchurFactorization::build(master.matrix, master.partition);
  }
  const numeric::SchurFactorization* handle =
      prefactored.valid() ? &prefactored : nullptr;

  DcOptions entry_opt = opt.dc;
  entry_opt.preflight = false;  // vetted above; clones carry a valid pattern

  util::ThreadPool pool(opt.threads);
  // Master-cache-plus-clones: every mutable object the entry loop below
  // touches is either indexed by `worker` (caches, netlists, dirty
  // flags — one slot per pool worker, never shared) or internally
  // locked (the obs registry). MnaCache itself is deliberately
  // lock-free (see mna.hpp) — this worker-slot discipline, checked by
  // mnsim-analyze's parallel-capture rule, is what makes that safe.
  std::vector<MnaCache> caches(pool.worker_count(), master);
  std::vector<Netlist> netlists(pool.worker_count(), base);
  // Workers restore base values before an entry that does not override
  // them, so entries never see a previous entry's programming.
  std::vector<double> base_sources(n_src), base_states(n_mem);
  for (std::size_t s = 0; s < n_src; ++s)
    base_sources[s] = base.sources()[s].volts;
  for (std::size_t m = 0; m < n_mem; ++m)
    base_states[m] = base.memristors()[m].r_state;
  std::vector<char> src_dirty(pool.worker_count(), 0);
  std::vector<char> mem_dirty(pool.worker_count(), 0);

  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) {
    reg.add("spice.dc_batches");
    reg.add("spice.dc_batch_entries", static_cast<long>(entries.size()));
  }

  pool.for_each_index(
      entries.size(), [&](std::size_t index, std::size_t worker) {
        Netlist& nl = netlists[worker];
        const DcBatchEntry& e = entries[index];
        if (!e.source_voltages.empty()) {
          for (std::size_t s = 0; s < n_src; ++s)
            nl.set_source_voltage(s, e.source_voltages[s]);
          src_dirty[worker] = 1;
        } else if (src_dirty[worker]) {
          for (std::size_t s = 0; s < n_src; ++s)
            nl.set_source_voltage(s, base_sources[s]);
          src_dirty[worker] = 0;
        }
        if (!e.memristor_states.empty()) {
          for (std::size_t m = 0; m < n_mem; ++m)
            nl.set_memristor_state(m, e.memristor_states[m]);
          mem_dirty[worker] = 1;
        } else if (mem_dirty[worker]) {
          for (std::size_t m = 0; m < n_mem; ++m)
            nl.set_memristor_state(m, base_states[m]);
          mem_dirty[worker] = 0;
        }
        const DcResult result =
            solve_dc_traced(nl, entry_opt, &caches[worker], handle);
        visit(index, nl, result);
      });
}

std::vector<DcResult> solve_dc_batch(const Netlist& base,
                                     const std::vector<DcBatchEntry>& entries,
                                     const DcBatchOptions& options) {
  std::vector<DcResult> out(entries.size());
  solve_dc_batch_visit(
      base, entries, options,
      [&out](std::size_t index, const Netlist&, const DcResult& result) {
        out[index] = result;
      });
  return out;
}

double memristor_current(const Netlist& nl, const MemristorElement& m,
                         const DcResult& dc) {
  const double v = dc.voltage(m.a) - dc.voltage(m.b);
  if (nl.linear_memristors()) return v / m.r_state;
  return nl.device()
      .current(units::Ohms{m.r_state}, units::Volts{v})
      .value();
}

double total_source_power(const Netlist& nl, const DcResult& dc) {
  // P = sum over sources of V * I(source). The source current equals the
  // sum of element currents leaving the pinned node.
  double power = 0.0;
  for (const auto& s : nl.sources()) {
    double i_out = 0.0;
    for (const auto& r : nl.resistors()) {
      if (r.a == s.node)
        i_out += (dc.voltage(r.a) - dc.voltage(r.b)) / r.ohms;
      else if (r.b == s.node)
        i_out += (dc.voltage(r.b) - dc.voltage(r.a)) / r.ohms;
    }
    for (const auto& m : nl.memristors()) {
      if (m.a == s.node)
        i_out += memristor_current(nl, m, dc);
      else if (m.b == s.node)
        i_out -= memristor_current(nl, m, dc);
    }
    power += s.volts * i_out;
  }
  return power;
}

}  // namespace mnsim::spice
